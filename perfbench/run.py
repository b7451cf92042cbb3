"""mlenn benchmark: closed loop, one client, one fresh process per command.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The benchmark generates the workload's input files from ``--seed`` and
then runs the workload's operation again and again, one after another,
for ``--seconds`` seconds. Every command of an operation is its own
``python -m mlenn.cli`` process started from the checkout's ``src``, so
import, parsing and model files are paid as a user pays them. Outputs are
checked after every operation. The last line of standard output is one
JSON object: the end-to-end metrics with ``--trace 0``, or the per-layer
metrics of a traced run with ``--trace 1``. Earlier lines give each
metric's quartiles and sample count, the environment, and the labelled
paper-protocol extrapolation.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import sys
import threading
from time import perf_counter

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from workloads import PAPER_FOLDS, PAPER_MEMBERS, PAPER_ROWS, WORKLOADS  # noqa: E402

BLAS_THREADS = 1
SETUP_PROBES = 7
DEADLINE_S = 170.0  # every run must exit within 180 s

# The ten indicators every report record must carry. Listed here rather
# than imported, so the output check does not take them from the program
# it checks.
METRIC_NAMES = ("hamming_loss", "one_error", "ranking_loss", "coverage",
                "average_precision", "aiming", "recall", "accuracy",
                "absolute_true", "absolute_false")

END_TO_END = {"wall_s": "s", "rows_per_s": "rows/s", "setup_s": "s", "peak_rss_mb": "MB"}

PER_LAYER = {}
for _layer in ("conv1d", "gru"):
    for _dir in ("fwd", "bwd"):
        PER_LAYER.update({f"layers.{_layer}.{_dir}.calls": "count",
                          f"layers.{_layer}.{_dir}.self_s": "s",
                          f"layers.{_layer}.{_dir}.gflops": "GFLOP/s"})
for _layer in ("batchnorm", "dense", "maxpool", "pointwise"):
    for _dir in ("fwd", "bwd"):
        PER_LAYER.update({f"layers.{_layer}.{_dir}.calls": "count",
                          f"layers.{_layer}.{_dir}.self_s": "s"})
PER_LAYER.update({
    "network.forward.self_s": "s", "network.backward.self_s": "s",
    "training.steps": "count", "training.step.self_s": "s",
    "training.clip_fired_ratio": "ratio", "training.loss.self_s": "s",
    "optim.step.calls": "count", "optim.step.self_s": "s", "optim.clip.self_s": "s",
    "numerics.kmeans.self_s": "s", "numerics.kmeans.iterations": "count",
    "numerics.kmeans.temp_bytes": "B", "numerics.pca_fit.self_s": "s",
    "pipeline.normalize.self_s": "s", "pipeline.augment.self_s": "s",
    "pipeline.virtual_rows": "rows",
    "metrics.compute_all.calls": "count", "metrics.compute_all.self_s": "s",
    "ensemble.member_train_s": "s", "ensemble.predict.self_s": "s",
    "ensemble.fuse.self_s": "s", "ensemble.save.self_s": "s", "ensemble.load.self_s": "s",
    "ensemble.model_bytes": "B",
    "harness.load_dataset.self_s": "s", "harness.load_dataset.bytes": "B",
    "harness.load_external_scores.self_s": "s", "harness.split.self_s": "s",
    "harness.run_experiment.self_s": "s", "harness.folds_failed": "count",
    "cli.main.self_s": "s",
    "trace.overhead_s": "s",
})


class BenchError(Exception):
    """The benchmark cannot produce a result."""


class Runner:
    """Starts children with a fixed environment and times them from outside."""

    def __init__(self, root: str, workdir: str, started: float):
        self.root = root
        self.workdir = workdir
        self.started = started
        env = dict(os.environ)
        env.update(PYTHONPATH=os.path.join(root, "src"), PYTHONHASHSEED="0",
                   OPENBLAS_NUM_THREADS=str(BLAS_THREADS), OMP_NUM_THREADS=str(BLAS_THREADS),
                   MKL_NUM_THREADS=str(BLAS_THREADS))
        self.env = env

    def spawn(self, argv: list, stdout: str, stderr: str):
        """Run one child to completion; returns (exit code, wall s, peak RSS MB).

        A child still running at the run's deadline is killed and reported
        with exit code -9.
        """
        actions = [(os.POSIX_SPAWN_OPEN, 1, stdout, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
                   (os.POSIX_SPAWN_OPEN, 2, stderr, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)]
        remaining = DEADLINE_S - (perf_counter() - self.started)
        if remaining <= 0:
            raise BenchError("no time left to start another command")
        start = perf_counter()
        pid = os.posix_spawn(sys.executable, [sys.executable, *argv], self.env,
                             file_actions=actions)
        timer = threading.Timer(remaining, os.kill, (pid, signal.SIGKILL))
        timer.start()
        try:
            _, status, usage = os.wait4(pid, 0)
        finally:
            timer.cancel()
        wall = perf_counter() - start
        return os.waitstatus_to_exitcode(status), wall, usage.ru_maxrss / 1024.0


def _quartiles(values: list) -> tuple:
    if len(values) == 1:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def _check_records(records: list, n_labels: int) -> list:
    errors = []
    for rec in records:
        for name in METRIC_NAMES:
            value = rec["metrics"].get(name)
            hi = n_labels - 1 if name == "coverage" else 1.0
            if not isinstance(value, float) or not math.isfinite(value) or not 0.0 <= value <= hi:
                errors.append(f"{rec['model']} fold {rec['fold']}: {name}={value!r} "
                              f"outside [0, {hi}]")
    return errors


def _digest(*paths) -> str:
    h = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def check_operation(wl, inputs: dict, out: str) -> tuple:
    """Validate one operation's files; returns (folds attempted, folds
    failed, output digest, errors)."""
    n_labels = inputs["labels"]
    if wl.folds is None:
        report = os.path.join(out, "eval", "report.json")
        digest_of = [os.path.join(out, "model", "model.json"), os.path.join(out, "eval", "report.txt")]
        expected = 1
        attempted = failed = 0
    else:
        report = os.path.join(out, "report", "report.json")
        digest_of = [os.path.join(out, "report", "report.txt")]
        models = 3 if wl.external else 1
        expected = (wl.folds + 1) * models
        attempted = wl.folds
    try:
        with open(report, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        digest = _digest(*digest_of)
    except (OSError, ValueError) as exc:
        return attempted, attempted, None, [f"unreadable output: {exc}"]
    if wl.folds is not None:
        failed = len(doc["failures"])
    errors = _check_records(doc["records"], n_labels)
    if len(doc["records"]) != expected:
        errors.append(f"{len(doc['records'])} records, expected {expected}")
    return attempted, failed, digest, errors


def run_operation(runner: Runner, wl, inputs: dict, seed: int, index: int, traced: bool) -> dict:
    out = os.path.join(runner.workdir, f"op{index}")
    os.makedirs(out)
    op = {"traced": traced, "wall": 0.0, "walls": {}, "rss": 0.0, "exit_failures": 0,
          "commands": 0, "spans": []}
    for label, argv in wl.commands(inputs, seed, out):
        if traced:
            spans = os.path.join(out, f"{label}.spans.json")
            argv = [os.path.join(HERE, "tracer.py"), spans, "--", *argv]
            op["spans"].append(spans)
        else:
            argv = ["-m", "mlenn.cli", *argv]
        stderr = os.path.join(out, f"{label}.stderr")
        code, wall, rss = runner.spawn(argv, os.devnull, stderr)
        op["commands"] += 1
        op["wall"] += wall
        op["walls"][label] = wall
        op["rss"] = max(op["rss"], rss)
        if code != 0:
            op["exit_failures"] += 1
            with open(stderr, "r", encoding="utf-8", errors="replace") as fh:
                tail = fh.read()[-2000:]
            print(f"# {label} exited {code}: {tail.strip()}", file=sys.stderr)
            break
    attempted, failed, digest, errors = check_operation(wl, inputs, out)
    op.update(attempted=attempted + op["commands"], failed=failed + op["exit_failures"],
              digest=digest, errors=errors)
    if traced and not op["exit_failures"]:
        op["trace"] = _merge_spans(op["spans"])
    shutil.rmtree(out)
    return op


def _merge_spans(paths: list) -> dict:
    spans: dict = {}
    counts: dict = {}
    for path in paths:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        for name, rec in doc["spans"].items():
            into = spans.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            for key in into:
                into[key] += rec[key]
        for name, value in doc["counts"].items():
            counts[name] = counts.get(name, 0.0) + value
    return {"spans": spans, "counts": counts}


def layer_metrics(trace: dict) -> dict:
    """Per-layer metrics of one traced operation."""
    spans, counts = trace["spans"], trace["counts"]

    def span(name):
        return spans.get(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})

    m = {}
    for layer in ("conv1d", "gru", "batchnorm", "dense", "maxpool", "pointwise"):
        for direction in ("fwd", "bwd"):
            s = span(f"layers.{layer}.{direction}")
            key = f"layers.{layer}.{direction}"
            m[f"{key}.calls"] = s["calls"]
            m[f"{key}.self_s"] = s["self_s"]
            if layer in ("conv1d", "gru"):
                flop = counts.get(f"{layer}.{direction}.flop", 0.0)
                m[f"{key}.gflops"] = flop / s["self_s"] / 1e9 if s["self_s"] > 0 else 0.0
    train = span("training.train_network")
    clips = counts.get("clip.calls", 0.0)
    m.update({
        "network.forward.self_s": span("network.forward")["self_s"],
        "network.backward.self_s": span("network.backward")["self_s"],
        "training.steps": span("training.loss")["calls"],
        "training.step.self_s": train["self_s"],
        "training.clip_fired_ratio": counts.get("clip.fired", 0.0) / clips if clips else 0.0,
        "training.loss.self_s": span("training.loss")["self_s"],
        "optim.step.calls": span("optim.step")["calls"],
        "optim.step.self_s": span("optim.step")["self_s"],
        "optim.clip.self_s": span("optim.clip")["self_s"],
        "numerics.kmeans.self_s": span("numerics.kmeans")["self_s"],
        "numerics.kmeans.iterations": counts.get("kmeans.iterations", 0.0),
        "numerics.kmeans.temp_bytes": counts.get("kmeans.temp_bytes", 0.0),
        "numerics.pca_fit.self_s": span("numerics.pca_fit")["self_s"],
        "pipeline.normalize.self_s": span("pipeline.normalize")["self_s"],
        "pipeline.augment.self_s": span("pipeline.augment")["self_s"],
        "pipeline.virtual_rows": counts.get("virtual_rows", 0.0),
        "metrics.compute_all.calls": span("metrics.compute_all")["calls"],
        "metrics.compute_all.self_s": span("metrics.compute_all")["self_s"],
        "ensemble.member_train_s": train["total_s"] / train["calls"] if train["calls"] else 0.0,
        "ensemble.predict.self_s": span("ensemble.predict")["self_s"],
        "ensemble.fuse.self_s": span("ensemble.fuse")["self_s"],
        "ensemble.save.self_s": span("ensemble.save")["self_s"],
        "ensemble.load.self_s": span("ensemble.load")["self_s"],
        "ensemble.model_bytes": counts.get("model_bytes", 0.0),
        "harness.load_dataset.self_s": span("harness.load_dataset")["self_s"],
        "harness.load_dataset.bytes": counts.get("load_dataset.bytes", 0.0),
        "harness.load_external_scores.self_s": span("harness.load_external_scores")["self_s"],
        "harness.split.self_s": span("harness.split")["self_s"],
        "harness.run_experiment.self_s": span("harness.run_experiment")["self_s"],
        "harness.folds_failed": counts.get("folds_failed", 0.0),
        "cli.main.self_s": span("cli.main")["self_s"],
    })
    return m


def measure_setup(runner: Runner, inputs: dict) -> list:
    """Time fresh processes that import mlenn and parse the input files.

    The first probe compiles the checkout's bytecode and is not counted.
    """
    argv = [os.path.join(HERE, "probe.py"), inputs["dataset"]]
    if inputs["scores"]:
        argv.append(inputs["scores"])
    expected = os.path.join(runner.root, "src", "mlenn", "__init__.py")
    stdout = os.path.join(runner.workdir, "probe.out")
    stderr = os.path.join(runner.workdir, "probe.err")
    walls = []
    for i in range(SETUP_PROBES + 1):
        code, wall, _ = runner.spawn(argv, stdout, stderr)
        with open(stdout, "r", encoding="utf-8") as fh:
            imported = fh.read().strip()
        if code != 0 or os.path.realpath(imported) != os.path.realpath(expected):
            with open(stderr, "r", encoding="utf-8", errors="replace") as fh:
                detail = fh.read()[-2000:].strip()
            raise BenchError(f"set-up probe failed (exit {code}, imported {imported!r}): {detail}")
        if i:
            walls.append(wall)
    return walls


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": sys.version.split()[0], "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": BLAS_THREADS, "nproc": len(os.sched_getaffinity(0))}


def _print_stat(name: str, unit: str, values: list) -> None:
    q1, med, q3 = _quartiles(values)
    print(f"{name}: median={med:.6g} q1={q1:.6g} q3={q3:.6g} n={len(values)} {unit}")


def run(args) -> dict:
    started = perf_counter()
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "mlenn", "cli.py")):
        raise BenchError(f"{root} has no src/mlenn: run from the root of an mlenn checkout")
    wl = WORKLOADS[args.workload]
    workdir = os.path.join(HERE, "work", f"{wl.name}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        return _run_in(wl, args, Runner(root, workdir, started), started)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass  # another run still uses it


def _run_in(wl, args, runner: Runner, started: float) -> dict:
    inputs = wl.make_inputs(args.seed, runner.workdir)
    setup = measure_setup(runner, inputs)
    budget = min(float(args.seconds), DEADLINE_S - (perf_counter() - started) - 10.0)

    ops: list = []
    loop_start = perf_counter()
    while True:
        traced = bool(args.trace) and len(ops) % 2 == 1
        ops.append(run_operation(runner, wl, inputs, args.seed, len(ops), traced))
        if ops[-1]["exit_failures"]:
            break
        # Start another operation only if a typical one still fits; a traced
        # run needs at least one untraced and one traced operation.
        elapsed = perf_counter() - loop_start
        typical = statistics.median(op["wall"] for op in ops)
        if (not args.trace or len(ops) >= 2) and elapsed + typical > budget:
            break

    errors = [e for op in ops for e in op["errors"]]
    digests = {op["digest"] for op in ops}
    if len(digests) != 1:
        errors.append(f"operations on identical inputs gave {len(digests)} distinct outputs")
    attempted = sum(op["attempted"] for op in ops)
    failed = sum(op["failed"] for op in ops)
    for e in errors[:20]:
        print(f"# check failed: {e}", file=sys.stderr)

    env = environment()
    print(f"# workload={wl.name} seed={args.seed} why: {wl.why}")
    print("# environment: " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"# closed loop, 1 client, {len(ops)} operations, "
          f"failed_ratio={failed}/{attempted} (failed folds + nonzero exits over "
          f"attempted folds + commands)")
    print("# report digest: " + ", ".join(sorted(d[:16] if d else "missing" for d in digests)))

    plain = [op for op in ops if not op["traced"]]
    walls = [op["wall"] for op in plain]
    if wl.folds is None:
        rate_name, rate_wall = "scored_rows_per_s", [op["walls"].get("evaluate", math.inf)
                                                     for op in plain]
    else:
        rate_name, rate_wall = "train_rows_per_s", walls
    rates = [wl.work_rows() / w for w in rate_wall]
    series = {"wall_s": walls, "rows_per_s": rates, "setup_s": setup,
              "peak_rss_mb": [op["rss"] for op in plain]}
    for name, values in series.items():
        label = f"{name} ({rate_name}, {wl.work_rows()} rows per operation)" \
            if name == "rows_per_s" else name
        _print_stat(label, END_TO_END[name], values)
    if wl.paper_epochs:
        hours = wl.paper_rows() / statistics.median(rates) / 3600.0
        print(f"# extrapolation, not a measurement: paper protocol "
              f"({'/'.join(wl.topologies)}, {wl.paper_epochs} epochs, {PAPER_MEMBERS} members, "
              f"{PAPER_FOLDS} folds, {PAPER_ROWS} rows) at this rate: {hours:.1f} h "
              f"({hours / 24:.2f} days)")

    if args.trace:
        metrics = _trace_metrics(wl, ops, plain)
        units = PER_LAYER
    else:
        metrics = {name: statistics.median(values) for name, values in series.items()}
        units = END_TO_END
    return {"correct": not errors and failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": float(metrics[name]), "unit": units[name]}
                        for name in units}}


def _trace_metrics(wl, ops: list, plain: list) -> dict:
    traced = [op for op in ops if "trace" in op]
    if not traced:
        raise BenchError("no traced operation completed")
    per_op = [layer_metrics(op["trace"]) for op in traced]
    for op in traced:
        spans = op["trace"]["spans"]
        missing = [s for s in wl.required_spans if spans.get(s, {}).get("calls", 0) == 0]
        if missing:
            raise BenchError(f"traced functions recorded zero calls on {wl.name}: {missing}")
        rows = op["trace"]["counts"].get("trained_rows", 0.0)
        if wl.folds is not None and rows != wl.work_rows():
            raise BenchError(f"trace counted {rows:.0f} trained rows, the throughput "
                             f"formula says {wl.work_rows()}")
    metrics = {name: statistics.median(m[name] for m in per_op) for name in per_op[0]}
    overhead = (statistics.median(op["wall"] for op in traced)
                - statistics.median(op["wall"] for op in plain))
    metrics["trace.overhead_s"] = overhead
    for name in sorted(metrics):
        print(f"{name}: {metrics[name]:.6g} {PER_LAYER[name]}")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = run(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
