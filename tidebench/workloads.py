"""The three workloads of the tide benchmark and the metrics they report.

compare-joint   the objective ablation (sl, ib, ib_cind, tide) on the frozen
                joint fixture, in this process, through experiment.run_single
cli-large       generate -> train (ib) -> eval x2 on a Cora-sized cSBM, each
                step its own `tide` process
check-grad      `tide check-grad` at its defaults, as a process

An untraced run repeats whole rounds of its operations until the run
length has passed and reports medians over rounds. A traced run repeats
cycles: the workload's operations untraced (as processes where the
workload uses them), then each operation in this process twice, back to
back, untraced and with every tide function wrapped (tracing.py). The
per-layer numbers come from the wrapped calls; the tracing overhead is
the gap between the two in-process walls.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import oracle
import tracing
from oracle import expect

MODES = ("sl", "ib", "ib_cind", "tide")

END_TO_END = (("setup_s", "s", "lower"),
              ("round_s", "s", "lower"),
              ("peak_rss_mb", "MB", "lower"))

BREAKDOWN = (("train_s.sl", "s", "lower"), ("train_s.ib", "s", "lower"),
             ("train_s.ib_cind", "s", "lower"), ("train_s.tide", "s", "lower"),
             ("eval_s", "s", "lower"), ("gradcheck_s", "s", "lower"),
             ("auroc_prop.ib", "1", "higher"), ("auroc_prop.tide", "1", "higher"),
             ("id_acc.tide", "1", "higher"), ("ent_id.ib", "nats", "lower"),
             ("ent_gap.ib", "nats", "higher"))

SETUP_SAMPLES = 5
PROCESS_TIMEOUT_S = 150
GRADCHECK_THRESHOLD = 1e-3
# tide eval without --config propagates with the TideConfig defaults.
PROP_ALPHA, PROP_K = 0.5, 2

# A cSBM of about Cora's size. Four classes, 64 features, 15%/20% train/val
# and the separation of the joint fixture; p_in/p_out keep the fixture's
# 8:1 ratio and its expected degree (~6.9) at six times the nodes.
CLI_NODES = 3000
CLI_EPOCHS = 100
CLI_SHIFTS = {"structure": "structure:0.3", "feature": "feature:0.5"}
GENERATE_FLAGS = ["--kind", "csbm", "--n", str(CLI_NODES), "--classes", "4",
                  "--dim", "64", "--p-in", "0.0067", "--p-out", "0.00083",
                  "--mu-sep", "3.0", "--train-frac", "0.15", "--val-frac", "0.2"]


# Traced functions each workload must reach, whatever the implementation
# below them: a zero count here means a binding escaped the tracer.
# Primitive-level counts are left out, as optimisations may change them.
_TRAINING = ("trainer.train_tide", "trainer.adam_step", "model.encode_joint",
             "model.predict_logits", "model.joint_logits_at_mean",
             "objectives.vib_loss", "objectives.cross_entropy",
             "objectives.kl_standard_normal", "objectives.tide_total",
             "graph.sym_normalized_adjacency", "autodiff.backward")
_SCORING = ("detection.energy_score", "detection.propagate_energy",
            "detection.propagation_operator", "detection.evaluate")
EXERCISED = {
    "compare-joint": _TRAINING + _SCORING + (
        "experiment.make_fixture", "experiment.run_single", "shift.gen_csbm",
        "shift.apply_structure_shift", "model.encode_feature",
        "model.encode_structure", "objectives.club_estimate",
        "objectives.recon_cind_loss"),
    "cli-large": _TRAINING + _SCORING + (
        "cli.main.generate", "cli.main.train", "cli.main.eval", "shift.gen_csbm",
        "shift.apply_structure_shift", "graph.save_bundle", "graph.load_bundle",
        "model.save_checkpoint", "model.load_checkpoint",
        "detection.write_scores_csv", "detection.histogram_data"),
    "check-grad": (
        "cli.main.check-grad", "gradcheck.gradient_check_report", "shift.gen_csbm",
        "model.encode_joint", "model.encode_feature", "model.encode_structure",
        "model.predict_logits", "objectives.vib_loss", "objectives.cross_entropy",
        "objectives.kl_standard_normal", "objectives.club_estimate",
        "objectives.recon_cind_loss", "objectives.tide_total", "autodiff.backward"),
}


def _expect_exercised(workload: str, summary: dict) -> None:
    missing = [name for name in EXERCISED[workload] if not summary[f"{name}.calls"]]
    expect(not missing, f"traced round never reached {missing}")


def per_layer_metrics() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every metric a traced run prints, in order."""
    out = []
    for name in tracing.span_names():
        out += [(f"{name}.self_s", "s", "lower"), (f"{name}.calls", "count", "lower")]
    out += [(name, unit, "lower") for name, unit in tracing.COUNTERS]
    out += [(f"cli.{cmd}.startup_s", "s", "lower") for cmd in tracing.CLI_COMMANDS]
    out.append(("trace.overhead_pct", "%", "lower"))
    return out + list(BREAKDOWN)


def log(msg: str) -> None:
    print(f"tidebench: {msg}", file=sys.stderr, flush=True)


class RoundAborted(Exception):
    """An operation failed; the rest of the round depends on its output."""


class Ledger:
    """Operations attempted and failed, and whether every check passed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.correct = True

    def op(self, what: str, fn, *args, count: int = 1):
        self.attempted += count
        try:
            return fn(*args)
        except Exception as err:  # a failing operation is counted, not fatal
            self.failed += count
            log(f"operation failed: {what}: {err!r}")
            raise RoundAborted(what) from err

    def check(self, what: str, fn, *args):
        """Run one output check; returns its result, or None if it failed."""
        self.attempted += 1
        try:
            return fn(*args)
        except Exception as err:  # Mismatch, or a crash reading the output
            self.failed += 1
            self.correct = False
            log(f"check failed: {what}: {err!r}")
            return None


class Context:
    def __init__(self, root: Path, seed: int, seconds: int, trace: bool):
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.out = root / ".tidebench"
        self.ledger = Ledger()
        self.last_tracer = None

    def workdir(self, name: str) -> Path:
        path = self.out / name
        shutil.rmtree(path, ignore_errors=True)
        path.mkdir(parents=True)
        return path

    def rounds(self):
        """Round numbers 0, 1, ... until the run length has passed; whole
        rounds only, and always at least one."""
        deadline = time.perf_counter() + self.seconds
        i = 0
        while True:
            yield i
            i += 1
            if time.perf_counter() >= deadline:
                return


# ---------------------------------------------------------------------------
# Processes and in-process CLI calls
# ---------------------------------------------------------------------------

def _process(argv: list[str]) -> tuple[float, str]:
    t0 = time.perf_counter()
    done = subprocess.run(argv, capture_output=True, text=True,
                          timeout=PROCESS_TIMEOUT_S, check=False)
    wall = time.perf_counter() - t0
    if done.returncode != 0:
        raise RuntimeError(f"exit {done.returncode}: {done.stderr.strip()[-400:]}")
    return wall, done.stdout


def tide_process(ledger: Ledger, argv: list[str]) -> tuple[float, str]:
    """`tide ARGV` as its own process: the console script's entry point
    (tide.cli:main) run from the checkout's sources."""
    return ledger.op(f"tide {argv[0]} process", _process,
                     [sys.executable, "-m", "tide", *argv])


def _in_process(argv: list[str], tracer=None) -> tuple[float, str]:
    from tide import cli
    buf = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        if tracer is None:
            code = cli.main(argv)
        else:
            code = tracer.span(f"cli.main.{argv[0]}", cli.main, argv)
    wall = time.perf_counter() - t0
    if code != 0:
        raise RuntimeError(f"exit {code}: {buf.getvalue().strip()[-400:]}")
    return wall, buf.getvalue()


def tide_in_process(ledger: Ledger, argv: list[str], tracer=None) -> tuple[float, str]:
    return ledger.op(f"tide {argv[0]} in process", _in_process, argv, tracer)


def peak_rss_mb(who) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@contextlib.contextmanager
def traced(ledger: Ledger, tracer: tracing.Tracer):
    """Wrap tide's functions for the duration of the block."""
    patched = tracing.install(tracer)
    try:
        left = tracing.unwrapped_bindings(patched)
        ledger.check("every binding of a traced function is wrapped",
                     expect, not left, f"still unwrapped: {left}")
        yield
    finally:
        tracing.uninstall(patched)


@contextlib.contextmanager
def train_timer():
    """Laps of tide.trainer.train_tide, wherever tide calls it from."""
    from tide import trainer
    orig = trainer.train_tide
    laps = []

    def timed(*args, **kwargs):
        t0 = time.perf_counter()
        try:
            return orig(*args, **kwargs)
        finally:
            laps.append(time.perf_counter() - t0)

    patched = tracing.rebind(orig, timed)
    try:
        yield laps
    finally:
        tracing.uninstall(patched)


def _pair(ctx: Context, tracer: tracing.Tracer, index: int, plain, traced_fn):
    """One operation untraced and then traced, or the other way round on
    odd ``index``, so that slow drift in machine speed favours neither.

    Returns ((plain_wall, plain_result), (traced_wall, traced_result)).
    """
    def run_plain():
        t0 = time.perf_counter()
        res = plain()
        return time.perf_counter() - t0, res

    def run_traced():
        with traced(ctx.ledger, tracer):
            t0 = time.perf_counter()
            res = traced_fn()
            return time.perf_counter() - t0, res

    if index % 2 == 0:
        first = run_plain()
        return first, run_traced()
    first = run_traced()
    return run_plain(), first


def _median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


# ---------------------------------------------------------------------------
# compare-joint
# ---------------------------------------------------------------------------

FIXTURE_PROBE = ("import sys, time\n"
                 "t0 = time.perf_counter()\n"
                 "from tide import experiment\n"
                 "experiment.make_fixture('joint', int(sys.argv[1]))\n"
                 "print(time.perf_counter() - t0)\n")


def _fixture_setup(seed: int) -> float:
    """Import plus fixture build, timed inside a fresh interpreter."""
    _, out = _process([sys.executable, "-c", FIXTURE_PROBE, str(seed)])
    return float(out.strip())


def _joint_run(ctx: Context, mode: str, g_id, g_ood) -> dict:
    """Train and score one mode; the outcome and its train/eval split."""
    from tide import experiment
    with train_timer() as laps:
        t0 = time.perf_counter()
        outcome = ctx.ledger.op(f"{mode} training run and scoring",
                                experiment.run_single, mode, ctx.seed,
                                g_id, g_ood, count=2)
        wall = time.perf_counter() - t0
    expect(len(laps) == 1, f"run_single trained {len(laps)} times")
    return {"outcome": outcome, "train_s": laps[0], "eval_s": wall - laps[0]}


def _traced_run(ctx: Context, mode: str, g_id, g_ood) -> dict:
    from tide import experiment
    return ctx.ledger.op(f"{mode} training run and scoring", experiment.run_single,
                         mode, ctx.seed, g_id, g_ood, count=2).row


def _check_joint(mode: str, seed: int, outcome, g_id, g_ood) -> None:
    from tide import detection, experiment, model
    config = experiment.bench_config(mode, seed)
    row, result = outcome.row, outcome.result
    params = {n: p.values for n, p in result.model.params.items()}

    chain = {}
    for tag, g, split in (("id", g_id, "test_id"), ("ood", g_ood, "test_ood")):
        logits = model.joint_logits_at_mean(result.model, g)
        oracle.expect_close(f"{mode} {tag} logits", logits,
                            oracle.joint_logits(params, g.X, g.edges))
        raw = detection.energy_score(logits).e
        oracle.expect_close(f"{mode} {tag} energies", raw, oracle.energies(logits))
        prop = detection.propagate_energy(detection.EnergyScores(e=raw), g,
                                          config.prop_alpha, config.prop_k).e
        oracle.expect_close(f"{mode} {tag} propagated energies", prop,
                            oracle.propagate_dense(raw, g.n, g.edges,
                                                   config.prop_alpha, config.prop_k))
        idx = g.mask(split)
        chain[tag] = (logits[idx], raw[idx], prop[idx])

    (l_id, raw_id, prop_id), (l_ood, raw_ood, prop_ood) = chain["id"], chain["ood"]
    for kind, id_s, ood_s in (("raw", raw_id, raw_ood), ("prop", prop_id, prop_ood)):
        want = oracle.detection_metrics(id_s, ood_s)
        oracle.expect_metrics(mode, {k: row[f"{k}_{kind}"] for k in want}, want)
    id_acc = float(np.mean(l_id.argmax(axis=1) == g_id.y[g_id.mask("test_id")]))
    expect(row["id_acc"] == id_acc,
           f"{mode}: id_acc {row['id_acc']!r}, argmax gives {id_acc!r}")
    oracle.expect_close(f"{mode} ent_id", row["ent_id"], oracle.entropy(l_id).mean())
    oracle.expect_close(f"{mode} ent_ood", row["ent_ood"], oracle.entropy(l_ood).mean())

    best = oracle.expect_selection(result.log, result.best_epoch,
                                   experiment.BENCH_EPOCHS)
    expect(result.best_val_acc == best,
           f"{mode}: best_val_acc {result.best_val_acc!r}, log maximum {best!r}")
    restored = oracle.accuracy(oracle.joint_logits(params, g_id.X, g_id.edges),
                               g_id.y, g_id.mask("val"))
    expect(restored == best, f"{mode}: restored model scores {restored!r} on "
                             f"validation, the selected epoch {best!r}")


def _check_joint_round(ctx: Context, r: dict, g_id, g_ood, first) -> None:
    for mode in MODES:
        ctx.ledger.check(f"{mode} outputs", _check_joint, mode, ctx.seed,
                         r[mode]["outcome"], g_id, g_ood)
    if first is not None:
        ctx.ledger.check("rounds give identical rows", expect,
                         all(r[m]["outcome"].row == first[m] for m in MODES),
                         "a repeated round produced different metrics")


def _joint_quality(r: dict) -> dict:
    ib, tide = r["ib"]["outcome"].row, r["tide"]["outcome"].row
    return {"auroc_prop.ib": ib["auroc_prop"], "auroc_prop.tide": tide["auroc_prop"],
            "id_acc.tide": tide["id_acc"], "ent_id.ib": ib["ent_id"],
            "ent_gap.ib": ib["ent_ood"] - ib["ent_id"]}


def _joint_breakdown(r: dict) -> dict:
    out = {f"train_s.{m}": r[m]["train_s"] for m in MODES}
    out["eval_s"] = _median(r[m]["eval_s"] for m in MODES)
    return out | _joint_quality(r)


def compare_joint(ctx: Context) -> dict:
    led = ctx.ledger
    from tide import experiment

    if not ctx.trace:
        setup = [led.op("fixture set-up process", _fixture_setup, ctx.seed)
                 for _ in range(SETUP_SAMPLES)]
        g_id, g_ood = led.op("fixture build", experiment.make_fixture, "joint", ctx.seed)
        rounds, first_rows = [], None
        for _ in ctx.rounds():
            r = {mode: _joint_run(ctx, mode, g_id, g_ood) for mode in MODES}
            _check_joint_round(ctx, r, g_id, g_ood, first_rows)
            # Keep numbers only, so memory does not grow with the round count.
            first_rows = first_rows or {m: r[m]["outcome"].row for m in MODES}
            rounds.append(sum(r[m]["train_s"] + r[m]["eval_s"] for m in MODES))
            log("round " + " ".join(f"{m}={r[m]['train_s']:.3f}+{r[m]['eval_s']:.3f}s"
                                    for m in MODES))
        return {"setup_s": _median(setup), "round_s": _median(rounds),
                "peak_rss_mb": peak_rss_mb(resource.RUSAGE_SELF)}

    def fixture():
        return led.op("fixture build", experiment.make_fixture, "joint", ctx.seed)

    cycles = []
    for cycle in ctx.rounds():
        tracer = tracing.Tracer()
        (p_wall, (g_id, g_ood)), (t_wall, (tg_id, tg_ood)) = _pair(
            ctx, tracer, cycle, fixture, fixture)
        r = {}
        for i, mode in enumerate(MODES, start=1):
            (pw, r[mode]), (tw, row) = _pair(
                ctx, tracer, i + cycle, lambda: _joint_run(ctx, mode, g_id, g_ood),
                lambda: _traced_run(ctx, mode, tg_id, tg_ood))
            led.check(f"{mode} traced metrics equal untraced", expect,
                      row == r[mode]["outcome"].row,
                      f"{mode}: traced run changed the detection metrics")
            p_wall, t_wall = p_wall + pw, t_wall + tw
        _check_joint_round(ctx, r, g_id, g_ood, None)
        cycles.append(tracer.summary() | _joint_breakdown(r) |
                      {"trace.overhead_pct": 100.0 * (t_wall / p_wall - 1.0)})
        led.check("every exercised function was traced", _expect_exercised,
                  "compare-joint", cycles[-1])
        ctx.last_tracer = tracer
    return _cycle_medians(cycles)


# ---------------------------------------------------------------------------
# cli-large
# ---------------------------------------------------------------------------

BUNDLE_FILES = {"id": "csbm_id.json",
                "structure": "csbm_structure_0.3.json",
                "feature": "csbm_feature_0.5.json"}


def _generate_argv(seed: int, out_dir: Path) -> list[str]:
    return ["generate", *GENERATE_FLAGS, "--seed", str(seed),
            *[flag for spec in CLI_SHIFTS.values() for flag in ("--shift", spec)],
            "--out-dir", str(out_dir)]


def _pipeline_argvs(seed: int, bundles: Path, run: Path) -> list[list[str]]:
    """train, then eval against each shifted bundle."""
    out = [["train", "--data", str(bundles / BUNDLE_FILES["id"]), "--out", str(run),
            "--objective", "ib", "--epochs", str(CLI_EPOCHS), "--seed", str(seed)]]
    for kind in CLI_SHIFTS:
        out.append(["eval", "--checkpoint", str(run / "model.ckpt"),
                    "--data", str(bundles / BUNDLE_FILES["id"]),
                    "--ood-data", str(bundles / BUNDLE_FILES[kind]),
                    "--out", str(run / f"eval_{kind}")])
    return out


def _check_bundles(bundles: Path) -> dict:
    docs = {k: oracle.read_bundle(bundles / f) for k, f in BUNDLE_FILES.items()}
    for kind, doc in docs.items():
        oracle.expect_bundle(kind, doc)
    expect(docs["id"]["n"] == CLI_NODES, f"generated n={docs['id']['n']}")
    expect(docs["id"]["masks"]["test_ood"].size == 0, "ID bundle has an OOD pool")
    for kind in CLI_SHIFTS:
        oracle.expect_shift(kind, docs["id"], docs[kind], kind)
    return docs


def _check_train(run: Path, stdout: str, docs: dict) -> None:
    fields = dict(tok.split("=", 1) for tok in stdout.split() if "=" in tok)
    logged = oracle.read_train_log(run / "train_log.jsonl")
    best = oracle.expect_selection(logged, int(fields["best_epoch"]), CLI_EPOCHS)
    expect(fields["best_val_acc"] == f"{best:.4f}",
           f"printed best_val_acc {fields['best_val_acc']}, log maximum {best!r}")
    manifest = json.loads((run / "model.ckpt.json").read_text())
    b = docs["id"]
    expect((manifest["d"], manifest["C"]) == (b["d"], b["C"]),
           f"checkpoint dims d={manifest['d']} C={manifest['C']} vs bundle "
           f"d={b['d']} C={b['C']}")
    params = oracle.read_checkpoint(run / "model.ckpt")
    restored = oracle.accuracy(oracle.joint_logits(params, b["X"], b["E"]),
                               b["y"], b["masks"]["val"])
    expect(restored == best, f"saved model scores {restored!r} on validation, "
                             f"the selected epoch {best!r}")


def _check_eval(ev: Path, docs: dict, kind: str, params: dict) -> None:
    report = json.loads((ev / "report.json").read_text())
    scores = oracle.read_scores_csv(ev / "scores.csv")
    hist = json.loads((ev / "hist.json").read_text())
    expect(report.get("propagation") == {"alpha": PROP_ALPHA, "k": PROP_K},
           f"report propagation {report.get('propagation')!r}")
    oracle.expect_report("report.json", report, scores)

    b_id, b_ood = docs["id"], docs[kind]
    test_id, test_ood = b_id["masks"]["test_id"], b_ood["masks"]["test_ood"]
    l_id = oracle.joint_logits(params, b_id["X"], b_id["E"])
    l_ood = oracle.joint_logits(params, b_ood["X"], b_ood["E"])
    e_id, e_ood = oracle.energies(l_id), oracle.energies(l_ood)
    p_id = oracle.propagate_dense(e_id, b_id["n"], b_id["E"], PROP_ALPHA, PROP_K)
    p_ood = oracle.propagate_dense(e_ood, b_ood["n"], b_ood["E"], PROP_ALPHA, PROP_K)

    expect(np.array_equal(scores["node_id"], np.concatenate([test_id, test_ood])),
           "scores.csv node ids are not test_id then test_ood")
    expect(np.array_equal(scores["is_ood"], np.arange(scores["is_ood"].size) >= test_id.size),
           "scores.csv is_ood column does not split at n_id")
    expect(np.array_equal(scores["label"],
                          np.concatenate([b_id["y"][test_id], b_ood["y"][test_ood]])),
           "scores.csv labels differ from the bundles")
    expect(np.array_equal(scores["predicted"],
                          np.concatenate([l_id[test_id].argmax(1), l_ood[test_ood].argmax(1)])),
           "scores.csv predictions differ from the checkpoint's argmax")
    oracle.expect_close("scores.csv score", scores["score"],
                        np.concatenate([p_id[test_id], p_ood[test_ood]]))
    oracle.expect_metrics("report.raw", report["raw"],
                          oracle.detection_metrics(e_id[test_id], e_ood[test_ood]),
                          atol=1e-9)
    oracle.expect_hist("hist.json", hist, test_id.size, test_ood.size, scores["score"])


def _check_pipeline(ctx: Context, run: Path, train_stdout: str, docs: dict) -> None:
    led = ctx.ledger
    led.check("train outputs", _check_train, run, train_stdout, docs)
    params = led.check("checkpoint blob", oracle.read_checkpoint, run / "model.ckpt")
    if params is None:
        return
    for kind in CLI_SHIFTS:
        led.check(f"eval {kind} outputs", _check_eval, run / f"eval_{kind}", docs,
                  kind, params)


def _run_files(run: Path) -> dict:
    """Bytes of everything a pipeline round writes, minus the log's wall times."""
    out = {"model.ckpt": sha256(run / "model.ckpt"),
           "model.ckpt.json": sha256(run / "model.ckpt.json")}
    for kind in CLI_SHIFTS:
        for name in ("report.json", "scores.csv", "hist.json"):
            out[f"eval_{kind}/{name}"] = sha256(run / f"eval_{kind}" / name)
    logged = oracle.read_train_log(run / "train_log.jsonl")
    for rec in logged:
        rec.pop("wall_time_s")
    out["train_log.jsonl"] = hashlib.sha256(json.dumps(logged).encode()).hexdigest()
    return out


def _bundle_files(bundles: Path) -> dict:
    return {f: sha256(bundles / f) for f in BUNDLE_FILES.values()}


def _feature_auroc(run: Path) -> float:
    return json.loads((run / "eval_feature" / "report.json").read_text())["auroc"]


def cli_large(ctx: Context) -> dict:
    led = ctx.ledger
    work = ctx.workdir("cli-large")
    bundles, run = work / "bundles", work / "run"

    if not ctx.trace:
        setup, first_bundles = [], None
        for _ in range(SETUP_SAMPLES):
            wall, _ = tide_process(led, _generate_argv(ctx.seed, bundles))
            setup.append(wall)
            files = _bundle_files(bundles)
            led.check("generate is deterministic", expect,
                      first_bundles in (None, files), "repeated generate differs")
            first_bundles = first_bundles or files
        docs = led.check("generated bundles", _check_bundles, bundles)
        if docs is None:
            raise RoundAborted("generated bundles")
        rounds, first_files = [], None
        for _ in ctx.rounds():
            walls, stdouts = zip(*[tide_process(led, argv)
                                   for argv in _pipeline_argvs(ctx.seed, bundles, run)])
            _check_pipeline(ctx, run, stdouts[0], docs)
            files = _run_files(run)
            led.check("rounds write identical files", expect,
                      first_files in (None, files), "a repeated round wrote other bytes")
            first_files = first_files or files
            rounds.append(sum(walls))
            log(f"round train={walls[0]:.3f}s eval={walls[1]:.3f}s,{walls[2]:.3f}s")
        return {"setup_s": _median(setup), "round_s": _median(rounds),
                "peak_rss_mb": peak_rss_mb(resource.RUSAGE_CHILDREN)}

    def argvs(side: str) -> list[list[str]]:
        b, r = work / side / "bundles", work / side / "run"
        return [_generate_argv(ctx.seed, b)] + _pipeline_argvs(ctx.seed, b, r)

    def files(side: str) -> dict:
        return _bundle_files(work / side / "bundles") | _run_files(work / side / "run")

    cycles = []
    for cycle in ctx.rounds():
        tracer = tracing.Tracer()
        p_walls, p_out = zip(*[tide_process(led, a) for a in argvs("process")])
        plain_walls, traced_walls = [], []
        for i, (a_plain, a_traced) in enumerate(zip(argvs("plain"), argvs("traced"))):
            (pw, _), (tw, _) = _pair(ctx, tracer, i + cycle,
                                     lambda: tide_in_process(led, a_plain),
                                     lambda: tide_in_process(led, a_traced, tracer))
            plain_walls.append(pw)
            traced_walls.append(tw)
        p_files = files("process")
        docs = led.check("generated bundles", _check_bundles, work / "process" / "bundles")
        if docs is None:
            raise RoundAborted("generated bundles")
        _check_pipeline(ctx, work / "process" / "run", p_out[1], docs)
        for side in ("plain", "traced"):
            led.check(f"{side} run writes the process run's bytes", expect,
                      files(side) == p_files, f"{side} outputs differ")
        startup = [p - q for p, q in zip(p_walls, plain_walls)]
        cycles.append(tracer.summary() | {
            "cli.generate.startup_s": startup[0],
            "cli.train.startup_s": startup[1],
            "cli.eval.startup_s": _median(startup[2:]),
            "train_s.ib": p_walls[1],
            "eval_s": _median(p_walls[2:]),
            "auroc_prop.ib": _feature_auroc(work / "process" / "run"),
            "trace.overhead_pct": 100.0 * (sum(traced_walls) / sum(plain_walls) - 1.0)})
        led.check("every exercised function was traced", _expect_exercised,
                  "cli-large", cycles[-1])
        ctx.last_tracer = tracer
    return _cycle_medians(cycles)


# ---------------------------------------------------------------------------
# check-grad
# ---------------------------------------------------------------------------

def _import_setup() -> float:
    wall, _ = _process([sys.executable, "-c", "import tide.cli, tide.gradcheck"])
    return wall


def check_grad(ctx: Context) -> dict:
    led = ctx.ledger
    if not ctx.trace:
        setup = [led.op("import process", _import_setup) for _ in range(SETUP_SAMPLES)]
        rounds, first = [], None
        for _ in ctx.rounds():
            wall, stdout = tide_process(led, ["check-grad"])
            led.check("check-grad output", oracle.expect_gradcheck, stdout,
                      GRADCHECK_THRESHOLD)
            led.check("rounds print identical errors", expect,
                      first in (None, stdout), "a repeated audit printed other errors")
            first = first or stdout
            rounds.append(wall)
            log(f"round check-grad={wall:.3f}s")
        return {"setup_s": _median(setup), "round_s": _median(rounds),
                "peak_rss_mb": peak_rss_mb(resource.RUSAGE_CHILDREN)}

    cycles = []
    for cycle in ctx.rounds():
        p_wall, p_out = tide_process(led, ["check-grad"])
        led.check("check-grad output", oracle.expect_gradcheck, p_out,
                  GRADCHECK_THRESHOLD)
        tracer = tracing.Tracer()
        (q_wall, (_, q_out)), (t_wall, (_, t_out)) = _pair(
            ctx, tracer, cycle, lambda: tide_in_process(led, ["check-grad"]),
            lambda: tide_in_process(led, ["check-grad"], tracer))
        led.check("in-process audits print the process's errors", expect,
                  p_out == q_out == t_out, "traced or in-process audit differs")
        cycles.append(tracer.summary() | {
            "cli.check-grad.startup_s": p_wall - q_wall,
            "gradcheck_s": p_wall,
            "trace.overhead_pct": 100.0 * (t_wall / q_wall - 1.0)})
        led.check("every exercised function was traced", _expect_exercised,
                  "check-grad", cycles[-1])
        ctx.last_tracer = tracer
    return _cycle_medians(cycles)


# ---------------------------------------------------------------------------

def _cycle_medians(cycles: list[dict]) -> dict:
    names = [name for name, _, _ in per_layer_metrics()]
    return {name: _median(c[name] for c in cycles if name in c) for name in names}


RUNNERS = {"compare-joint": compare_joint, "cli-large": cli_large,
           "check-grad": check_grad}


def write_spans(ctx: Context, workload: str) -> None:
    """The last traced round's spans, written once the run is over."""
    tracer = ctx.last_tracer
    if tracer is None:
        return
    ctx.out.mkdir(parents=True, exist_ok=True)
    np.savez(ctx.out / f"spans-{workload}.npz", names=np.array(tracer.names),
             **tracer.arrays())


def run(workload: str, ctx: Context) -> dict:
    """Run one workload and return the benchmark's result object."""
    if ctx.trace:
        tracing.import_layers()   # so that no side pays the imports
    try:
        values = RUNNERS[workload](ctx)
    except RoundAborted:
        values = {}
    write_spans(ctx, workload)
    metrics = per_layer_metrics() if ctx.trace else END_TO_END
    led = ctx.ledger
    return {"correct": led.correct and led.attempted > 0,
            "attempted": led.attempted,
            "failed": led.failed,
            "metrics": {name: {"value": values.get(name, 0.0), "unit": unit}
                        for name, unit, _ in metrics}}
