"""Command-line experiment runner.

Subcommands: generate | train | eval | compare | check-grad. Every
command is a pure function of its flags and input files; outputs are
byte-reproducible under a fixed seed and TIDE_THREADS=1.

Exit codes: 0 success, 1 usage or I/O problems (bad flags, missing or
malformed files, invalid parameters), 2 numerical or contract failures
(non-finite loss, gradient check above threshold, empty OOD pool).

This module imports only the standard library at load time; the
numeric stack is imported lazily after TIDE_THREADS has been turned
into the BLAS thread-count environment variables, so the cap actually
takes effect.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace
from pathlib import Path

_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class CliError(ValueError):
    pass


def _cap_threads() -> None:
    """Apply TIDE_THREADS (default 1) before numpy gets imported."""
    raw = os.environ.get("TIDE_THREADS", "1")
    try:
        count = int(raw)
    except ValueError:
        raise CliError(f"TIDE_THREADS must be an integer, got {raw!r}")
    if count < 1:
        raise CliError(f"TIDE_THREADS must be >= 1, got {count}")
    for var in _THREAD_VARS:
        os.environ[var] = str(count)


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; the contract here is 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="tide", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    p = sub.add_parser("generate", help="sample a benchmark graph and shifts")
    p.add_argument("--kind", choices=["csbm"], default="csbm")
    p.add_argument("--n", type=int, default=500)
    p.add_argument("--classes", type=int, default=4)
    p.add_argument("--dim", type=int, default=16)
    p.add_argument("--p-in", type=float, default=0.05)
    p.add_argument("--p-out", type=float, default=0.005)
    p.add_argument("--mu-sep", type=float, default=2.5)
    p.add_argument("--noise", type=float, default=1.0)
    p.add_argument("--train-frac", type=float, default=0.4)
    p.add_argument("--val-frac", type=float, default=0.2)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--shift", action="append", default=[], metavar="KIND:ARG",
                   help="feature:LAMBDA_COMPLEMENT, structure:INTENSITY, "
                        "label:C1,C2 or label:all; repeatable")
    p.add_argument("--out-dir", default=".")
    p.add_argument("--stem", default="csbm",
                   help="output files are STEM_id.json, STEM_<shift>.json")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("train", help="fit one model on an ID bundle")
    p.add_argument("--data", required=True, help="ID bundle (single JSON)")
    p.add_argument("--config", help="TideConfig JSON; flags override it")
    p.add_argument("--out", required=True, help="run directory")
    p.add_argument("--objective", choices=["sl", "ib", "ib_cind", "tide"])
    p.add_argument("--seed", type=int)
    p.add_argument("--epochs", type=int)
    p.add_argument("--lr", type=float)
    p.add_argument("--hidden", type=int)
    p.add_argument("--exposure-data",
                   help="auxiliary OOD bundle; implies exposure training")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="score a checkpoint against an OOD bundle")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True, help="ID bundle")
    p.add_argument("--ood-data", required=True, help="OOD bundle")
    p.add_argument("--config", help="TideConfig JSON (propagation settings)")
    p.add_argument("--out", required=True, help="report directory")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("compare", help="objective ablation table over seeds")
    p.add_argument("--fixture", choices=["feature", "structure", "joint"],
                   default="feature")
    p.add_argument("--modes", default="sl,ib,ib_cind,tide")
    p.add_argument("--seeds", default="0,1,2,3,4")
    p.add_argument("--epochs", type=int)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("check-grad", help="finite-difference gradient audit")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--step", type=float, default=1e-5)
    p.add_argument("--threshold", type=float, default=1e-3)
    p.set_defaults(func=cmd_check_grad)

    return parser


# ---------------------------------------------------------------------------
# Subcommands (numeric imports stay inside the handlers)
# ---------------------------------------------------------------------------

def _require_file(path_str: str, what: str) -> Path:
    path = Path(path_str)
    if not path.is_file():
        raise CliError(f"missing {what}: {path}")
    return path


def _parse_shift(token: str, C: int, base_seed: int, index: int):
    from .shift import ShiftSpec
    kind, sep, arg = token.partition(":")
    if not sep or not arg:
        raise CliError(f"shift must look like kind:arg, got {token!r}")
    seed = base_seed + 1000 + index
    if kind in ("feature", "structure"):
        try:
            intensity = float(arg)
        except ValueError:
            raise CliError(f"bad shift intensity in {token!r}")
        return ShiftSpec(kind=kind, intensity=intensity, seed=seed)
    if kind == "label":
        if arg == "all":
            held = tuple(range(C))
        else:
            try:
                held = tuple(int(c) for c in arg.split(","))
            except ValueError:
                raise CliError(f"bad class list in {token!r}")
        return ShiftSpec(kind="label", seed=seed, ood_classes=held)
    raise CliError(f"unknown shift kind {kind!r}")


def cmd_generate(args) -> int:
    from .experiment import as_ood_bundle
    from .graph import save_bundle
    from .shift import CsbmParams, apply_shift, gen_csbm, label_leave_out_split

    params = CsbmParams(n=args.n, C=args.classes, d=args.dim,
                        p_in=args.p_in, p_out=args.p_out, mu_sep=args.mu_sep,
                        noise=args.noise, seed=args.seed,
                        train_frac=args.train_frac, val_frac=args.val_frac)
    g = gen_csbm(params)

    outdir = Path(args.out_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    written = []
    id_path = outdir / f"{args.stem}_id.json"
    save_bundle(g, id_path)
    written.append(id_path)

    kinds = []
    for i, token in enumerate(args.shift):
        spec = _parse_shift(token, g.C, args.seed, i)
        spec.validate(C=g.C)
        if spec.kind == "label":
            shifted, _ = label_leave_out_split(g, spec.ood_classes, spec.seed)
        else:
            shifted = as_ood_bundle(apply_shift(g, spec))
        tag = token.replace(":", "_").replace(",", "-")
        path = outdir / f"{args.stem}_{tag}.json"
        save_bundle(shifted, path)
        written.append(path)
        kinds.append(spec.kind)

    print(f"generated n={g.n} edges={g.num_edges} C={g.C} "
          f"shifts={kinds if kinds else '[]'}")
    for path in written:
        print(f"  wrote {path}")
    return 0


def _load_config(args):
    from .trainer import TideConfig
    if getattr(args, "config", None):
        return TideConfig.load(_require_file(args.config, "config file"))
    return TideConfig()


def cmd_train(args) -> int:
    from .graph import load_bundle
    from .model import save_checkpoint
    from .trainer import train_tide, write_train_log

    config = _load_config(args)
    overrides = {}
    for flag, field_name in (("objective", "objective_mode"), ("seed", "seed"),
                             ("epochs", "epochs"), ("lr", "lr"),
                             ("hidden", "hidden")):
        value = getattr(args, flag)
        if value is not None:
            overrides[field_name] = value
    if args.exposure_data:
        overrides["exposure_enabled"] = True
    if overrides:
        config = replace(config, **overrides)
    config.validate()

    g = load_bundle(_require_file(args.data, "data bundle"))
    exposure = None
    if args.exposure_data:
        exposure = load_bundle(_require_file(args.exposure_data,
                                             "exposure bundle"))
    elif config.exposure_enabled:
        raise CliError("config enables exposure but --exposure-data is missing")

    result = train_tide(g, config, exposure_graph=exposure)

    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    ckpt = outdir / "model.ckpt"
    save_checkpoint(result.model, ckpt, config.to_dict())
    write_train_log(outdir / "train_log.jsonl", result.log)
    print(f"trained objective={config.objective_mode} epochs={config.epochs} "
          f"best_val_acc={result.best_val_acc:.4f} best_epoch={result.best_epoch}")
    print(f"  wrote {ckpt}")
    return 0


def cmd_eval(args) -> int:
    import numpy as np

    from .detection import (histogram_data, score_splits, softmax_rows,
                            write_scores_csv)
    from .graph import load_bundle
    from .model import load_checkpoint

    model = load_checkpoint(_require_file(args.checkpoint, "checkpoint"))
    config = _load_config(args)
    g_id = load_bundle(_require_file(args.data, "ID bundle"))
    g_ood = load_bundle(_require_file(args.ood_data, "OOD bundle"))
    # Only the ID bundle must match: a label-leave-out OOD bundle may
    # legitimately carry fewer classes.
    if model.C != g_id.C:
        raise CliError(f"checkpoint has C={model.C} classes but the ID "
                       f"bundle has C={g_id.C}")

    s = score_splits(model, g_id, g_ood, config.prop_alpha, config.prop_k)
    report = s.report_prop

    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    doc = report.to_dict()
    doc["raw"] = s.report_raw.to_dict()
    doc["propagation"] = {"alpha": config.prop_alpha, "k": config.prop_k}
    with open(outdir / "report.json", "w") as fh:
        json.dump(doc, fh, sort_keys=True, indent=1)
        fh.write("\n")

    test_id, test_ood = g_id.mask("test_id"), g_ood.mask("test_ood")
    write_scores_csv(outdir / "scores.csv",
                     node_ids=np.concatenate([test_id, test_ood]),
                     scores=s.prop, is_ood=s.is_ood,
                     predicted=s.logits.argmax(axis=1),
                     labels=np.concatenate([g_id.y[test_id], g_ood.y[test_ood]]))

    conf = softmax_rows(s.logits).max(axis=1)
    hist = {
        "bins": 64,
        "energy_raw": histogram_data(s.raw[~s.is_ood], s.raw[s.is_ood]),
        "energy_prop": histogram_data(s.prop[~s.is_ood], s.prop[s.is_ood]),
        "confidence": histogram_data(conf[~s.is_ood], conf[s.is_ood]),
    }
    with open(outdir / "hist.json", "w") as fh:
        json.dump(hist, fh, sort_keys=True, indent=1)
        fh.write("\n")

    print(f"auroc={report.auroc:.4f} aupr={report.aupr:.4f} "
          f"fpr95={report.fpr95:.4f} id_acc={report.id_accuracy:.4f} "
          f"(n_id={report.n_id}, n_ood={report.n_ood})")
    print(f"  wrote {outdir / 'report.json'}")
    return 0


def cmd_compare(args) -> int:
    from .experiment import run_benchmark_suite

    modes = [m.strip() for m in args.modes.split(",") if m.strip()]
    seeds = []
    for tok in args.seeds.split(","):
        tok = tok.strip()
        if not tok:
            continue
        try:
            seeds.append(int(tok))
        except ValueError:
            raise CliError(f"bad seed {tok!r}")
    if not modes:
        raise CliError("need at least one objective mode")
    if not seeds:
        raise CliError("need at least one seed")

    overrides = {} if args.epochs is None else {"epochs": args.epochs}
    outdir = Path(args.out)
    run_benchmark_suite(args.fixture, modes, seeds, outdir, **overrides)
    sys.stdout.write((outdir / "compare.md").read_text())
    print(f"  wrote {outdir / 'compare.csv'}")
    return 0


def cmd_check_grad(args) -> int:
    from .gradcheck import gradient_check_report

    report = gradient_check_report(seed=args.seed, h=args.step)
    for name, err in report.items():
        print(f"{name:>14s}  max rel err {err:.3e}")
    worst = max(report.values())
    if worst >= args.threshold:
        print(f"FAIL: worst error {worst:.3e} >= {args.threshold}")
        return 2
    print(f"OK: all components below {args.threshold}")
    return 0


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def _dispatch(args) -> int:
    from . import autodiff, detection, graph, model, shift, trainer
    usage_errors = (CliError, OSError, json.JSONDecodeError,
                    graph.GraphError, graph.GraphFormatError,
                    shift.ShiftError, shift.DegenerateParamsError,
                    trainer.ConfigError, model.ModelError)
    numeric_errors = (autodiff.NumericsError, autodiff.DomainError,
                      autodiff.ShapeError, autodiff.TapeError,
                      trainer.TrainingError, detection.MetricError)
    try:
        return args.func(args)
    except numeric_errors as err:
        print(f"tide: error: {err}", file=sys.stderr)
        return 2
    except usage_errors as err:
        print(f"tide: error: {err}", file=sys.stderr)
        return 1


def main(argv=None) -> int:
    try:
        _cap_threads()
    except CliError as err:
        print(f"tide: error: {err}", file=sys.stderr)
        return 1
    parser = build_parser()
    args = parser.parse_args(argv)
    return _dispatch(args)


if __name__ == "__main__":
    sys.exit(main())
