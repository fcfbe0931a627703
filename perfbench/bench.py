"""Measurement, checks and reporting behind run.py (see its docstring)."""

import argparse
import contextlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import spans
import workloads
from workloads import DEFAULT_SEED, WORKLOADS, Job

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
REFERENCE = HERE / "reference.json"
SETUP_SAMPLES = 3
# the median of three rounds ignores one round that a slow spell of a
# shared host stretched
MIN_ROUNDS = 3
# duration of `calibrate()` on the host the baseline was taken on, when
# that host ran at full speed; see "Host speed" in README.md
CALIBRATION_REF_S = 0.06


@dataclass
class JobResult:
    label: str
    wall_s: float
    values: dict | None
    work: int
    failures: list
    calib_s: float = CALIBRATION_REF_S  # calibrate() around this job

    @property
    def host_s(self) -> float:
        """Wall time scaled to the reference host speed."""
        return self.wall_s * CALIBRATION_REF_S / self.calib_s


def calibrate(n: int = 11_000) -> float:
    """Seconds for a fixed loop of small numpy calls and a few BLAS
    matmuls, the same mix as the program's inner loop. Shared hosts slow
    both alike, so it measures the host's current speed."""
    rng = np.random.default_rng(0)
    x, w = rng.normal(size=(12, 6)), rng.normal(size=(6, 6))
    a, b = rng.normal(size=(192, 48)), rng.normal(size=(48, 48))
    acc = 0.0
    t0 = time.perf_counter()
    for i in range(n):
        acc += math.log(float(np.exp(-np.maximum(x @ w, 0.0)).sum()))
        if i % 8 == 0:
            acc += float((a @ b)[0, 0])
    return time.perf_counter() - t0


# ------------------------------------------------------------- setup

def prepare(jobs: list[Job], work: Path) -> list[tuple[Job, Path]]:
    """Import the whole package and write one YAML config per job."""
    import yaml

    import marginflow.cli  # noqa: F401  (imports every module)

    work.mkdir(parents=True, exist_ok=True)
    plan = []
    for i, job in enumerate(jobs):
        path = work / f"job{i}-{job.label}.yaml"
        path.write_text(yaml.safe_dump(job.config, sort_keys=True),
                        encoding="utf-8")
        plan.append((job, path))
    return plan


def measure_setup(workload: str, seed: int) -> list[tuple[float, float]]:
    """(wall, calibration) pairs: wall time from process start to ready
    in a fresh process, and the host speed measured around it."""
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    samples = []
    before = calibrate()
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                              cwd=ROOT) as proc:
            line = proc.stdout.readline()
            wall = time.perf_counter() - t0
            proc.stdout.read()
            rc = proc.wait(timeout=120)
        if rc != 0 or line.strip() != "ready":
            raise RuntimeError(f"setup probe failed (exit {rc}): {line!r}")
        after = calibrate()
        samples.append((wall, (before + after) / 2.0))
        before = after
    return samples


# --------------------------------------------------------------- jobs

def run_job(job: Job, cfg_path: Path, out_dir: Path) -> JobResult:
    import marginflow.cli as cli

    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    argv = [job.verb, "--config", str(cfg_path)]
    if job.verb == "run":
        argv += ["--out", str(out_dir)]
    buf = io.StringIO()
    error = None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            rc = cli.main(argv)
    except (Exception, SystemExit):  # a job that raises fails; the run goes on
        rc, error = None, traceback.format_exc(limit=2).strip()
    wall = time.perf_counter() - t0
    values, work, failures = None, 0, []
    if error is not None:
        failures.append("raised " + error.splitlines()[-1])
    else:
        if rc != 0:
            failures.append(f"exit code {rc}")
        try:
            values, work, found = workloads.inspect_job(job, out_dir,
                                                        buf.getvalue())
            failures += found
        except (OSError, ValueError, KeyError, IndexError) as exc:
            failures.append(f"unreadable output: {exc!r}")
    shutil.rmtree(out_dir, ignore_errors=True)
    return JobResult(job.label, wall, values, work, failures)


def run_round(plan, work: Path) -> list[JobResult]:
    """Each job's host speed is the mean of calibrations on either side."""
    results = []
    before = calibrate()
    for i, (job, path) in enumerate(plan):
        res = run_job(job, path, work / f"job{i}")
        after = calibrate()
        res.calib_s = (before + after) / 2.0
        results.append(res)
        before = after
    return results


def run_rounds(plan, work: Path, seconds: float, mark=None,
               min_rounds: int = MIN_ROUNDS) -> list:
    """Repeat rounds until `seconds` have passed and `min_rounds` ran.

    `mark`, if given, is called before and after every round.
    """
    rounds = []
    t0 = time.perf_counter()
    while (len(rounds) < min_rounds
           or time.perf_counter() - t0 < seconds):
        if mark is not None:
            mark()
        rounds.append(run_round(plan, work))
        if mark is not None:
            mark()
    return rounds


def check_rounds(rounds, reference: dict | None, tolerance: dict):
    """Mark failures in place; returns the count mismatches found.

    Every round must reproduce the first round's values exactly, and at
    the default seed the first round is compared with the reference.
    """
    mismatches = []
    first = rounds[0]
    for r in rounds[1:]:
        for a, b in zip(first, r):
            if b.values != a.values and a.values is not None:
                b.failures.append("values differ from the first round")
    if reference is not None:
        for i, res in enumerate(first):
            ref = reference["jobs"].get(res.label)
            if ref is None or res.values is None:
                continue
            mm, bad = workloads.compare_reference(res.label, res.values,
                                                   ref, tolerance)
            mismatches += [f"{res.label}.{m}" for m in mm]
            for rnd in rounds:
                rnd[i].failures += bad
    return mismatches


# ------------------------------------------------------------ metrics

def tally(rounds) -> tuple[int, int]:
    """(jobs attempted, jobs failed) over all rounds."""
    return (sum(len(rnd) for rnd in rounds),
            sum(bool(r.failures) for rnd in rounds for r in rnd))


def solve_times(rounds, wall: bool = False) -> list[float]:
    """Per-round solve time, scaled to the reference host speed unless
    `wall` asks for the raw wall time."""
    return [sum(r.wall_s if wall else r.host_s for r in rnd)
            for rnd in rounds]


def solve_time(rounds) -> float:
    """Sum over jobs of each job's median scaled time across rounds, so a
    slow spell that hits one job in one round is ignored."""
    return sum(statistics.median(rnd[i].host_s for rnd in rounds)
               for i in range(len(rounds[0])))


def end_to_end_metrics(rounds, setup_samples) -> dict:
    solve = solve_time(rounds)
    work = sum(r.work for r in rounds[0])
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "setup_s": (statistics.median(
            wall * CALIBRATION_REF_S / calib for wall, calib in setup_samples),
            "s"),
        "solve_s": (solve, "s"),
        "steps_per_s": (work / solve, "1/s"),
        "peak_rss_mb": (rss_mb, "MiB"),
    }


# (metric prefix, span names summed) for the per-layer metrics that every
# workload exercises, so their times are never a constant zero
TIMED_SPANS = {
    "models.forward": ("models.forward",),
    "autodiff.backward": ("autodiff.backward",),
    "models.per_sample_grad_norms": ("models.per_sample_grad_norms",),
    "gradflow.evaluate_point": ("gradflow.evaluate_point",),
    "gdtrain.estimate_b_constants": ("gdtrain.estimate_b_constants",),
    "runner.scenario": ("runner.scenario",),
    "runner.sinks": spans.SINKS,
    "losses": tuple(f"losses.{f}" for f in spans.LOSS_FIELDS),
}
TIMED_LAYERS = ("models", "autodiff", "gradflow", "gdtrain", "datasets",
                "runner", "cli")
# call counts reported for every workload; zero where a workload
# bypasses the layer
COUNTED_SPANS = (
    "models.forward", "autodiff.backward", "models.per_sample_grad_norms",
    "gradflow.evaluate_point", "gradflow.flow_step",
    "gradflow.LossUpperBound.update", "gradflow.run_hat",
    "gdtrain.estimate_b_constants", "gdtrain.loss_based_lr_epoch",
    "gdtrain.gd_step", "gdtrain.gd_step_direct",
    "gdtrain.PhiCurve.correction", "gdtrain.log_kappa",
    "kkt.build_certificate", "kkt.svm_oracle", "rates.rate_ratios",
    "rates.bounded_ratio_verdict", "datasets.load_dataset",
    "runner.frame_equivalence_check",
)
HOOK_COUNTS = ("gradflow.flow_step.accepted",
               "gradflow.flow_step.halvings",
               "gdtrain.estimate_b_constants.draws",
               "gdtrain.loss_based_lr_epoch.retries",
               "runner.sinks.records", "runner.sinks.bytes")


def layer_counts(table: dict, hook_counts: dict) -> dict:
    spans = table["spans"]
    out = {f"{name}.calls": spans.get(name, {}).get("calls", 0)
           for name in COUNTED_SPANS}
    out["losses.calls"] = sum(spans.get(n, {}).get("calls", 0)
                              for n in TIMED_SPANS["losses"])
    out["margin.calls"] = table["layers"].get("margin", {}).get("calls", 0)
    out.update({k: int(hook_counts.get(k, 0)) for k in HOOK_COUNTS})
    return out


def accept_ratios(counts: dict) -> dict:
    """Useful outcomes over attempts; None where a layer never ran."""
    def ratio(good, wasted):
        return good / (good + wasted) if good + wasted else None

    return {
        "gradflow.flow_step.accept_ratio": ratio(
            counts["gradflow.flow_step.accepted"],
            counts["gradflow.flow_step.halvings"]),
        "gdtrain.loss_based_lr_epoch.accept_ratio": ratio(
            counts["gdtrain.loss_based_lr_epoch.calls"],
            counts["gdtrain.loss_based_lr_epoch.retries"]),
    }


def layer_times(table: dict) -> dict:
    spans = table["spans"]
    out = {}
    for prefix, names in TIMED_SPANS.items():
        out[f"{prefix}.self_s"] = sum(spans[n]["self_s"] for n in names
                                      if n in spans)
    out["models.forward.total_s"] = spans["models.forward"]["total_s"]
    ev = spans["gradflow.evaluate_point"]
    if ev["p99_us"] is None:
        raise RuntimeError("too few evaluate_point calls for a p99")
    out["gradflow.evaluate_point.p50_us"] = ev["p50_us"]
    out["gradflow.evaluate_point.p99_us"] = ev["p99_us"]
    for layer in TIMED_LAYERS:
        out[f"{layer}.self_s"] = table["layers"][layer]["self_s"]
    return out


def unit_of(name: str) -> str:
    if name.endswith("_us"):
        return "us"
    if name.endswith("_s"):
        return "s"
    return "bytes" if name.endswith(".bytes") else "count"


def run_traced(plan, work: Path, seconds: float,
               min_rounds: int = MIN_ROUNDS):
    """Rounds under span tracing: (rounds, span tables, counts, tracer)."""
    tracer = spans.Tracer()
    uninstall = spans.install(tracer)
    marks, hooks = [], []

    def mark():
        marks.append(len(tracer))
        hooks.append(dict(tracer.counts))

    try:
        rounds = run_rounds(plan, work, seconds, mark, min_rounds)
    finally:
        uninstall()
    tables, counts = [], []
    for i in range(len(rounds)):
        tables.append(spans.span_table(tracer, marks[2 * i],
                                       marks[2 * i + 1]))
        before, after = hooks[2 * i], hooks[2 * i + 1]
        counts.append(layer_counts(tables[-1], {
            k: after[k] - before.get(k, 0) for k in after}))
    return rounds, tables, counts, tracer


def traced_metrics(base, rounds, tables, counts) -> dict:
    """Per-layer metrics: counts of the first traced round, median
    times over the traced rounds, and the tracing overhead against the
    untraced `base` rounds."""
    times = [layer_times(t) for t in tables]
    metrics = {k: (v, unit_of(k)) for k, v in counts[0].items()}
    metrics.update({k: (statistics.median(t[k] for t in times), unit_of(k))
                    for k in times[0]})
    metrics["trace.overhead_s"] = (solve_time(rounds) - solve_time(base),
                                   "s")
    return metrics


def trace_checks(tables, rounds) -> list[str]:
    """Self times must account for the traced wall time of every round."""
    problems = []
    for i, (table, rnd) in enumerate(zip(tables, rounds)):
        wall = sum(r.wall_s for r in rnd)
        cover = table["self_sum_s"] / wall
        if not 0.95 <= cover <= 1.0 + 1e-9:
            problems.append(f"round {i}: layer self times cover "
                            f"{cover:.4f} of the traced wall time")
        if abs(table["self_sum_s"] - table["root_s"]) > 1e-6 * wall:
            problems.append(f"round {i}: self times do not add up to the "
                            "root spans")
        if table["min_self_s"] < -1e-6:
            problems.append(f"round {i}: negative self time "
                            f"{table['min_self_s']:.3g} s")
    return problems


# -------------------------------------------------------------- report

def env_stamp(blas_before: dict) -> dict:
    import numpy
    import scipy

    blas = None
    with contextlib.suppress(Exception):  # the config layout varies
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas": blas and {k: blas.get(k) for k in ("name", "version")},
        "blas_threads": {v: os.environ.get(v) for v in blas_before},
        "blas_pinned_by_launcher": bool(blas_before) and all(
            os.environ.get(v) == "1" for v in blas_before),
        "blas_env_before_launch": blas_before,
        "load_processes": 1,
    }


def load_reference() -> dict:
    if REFERENCE.is_file():
        return json.loads(REFERENCE.read_text(encoding="utf-8"))
    return {"tolerance": {}, "workloads": {}}


def print_jobs(rounds) -> None:
    for res in rounds[0]:
        status = "ok" if not res.failures else "FAILED: " + "; ".join(
            res.failures)
        print(f"job {res.label}: {res.wall_s:.3f} s, {res.work} steps, "
              f"{status}")
        if res.values is not None:
            print(f"  values {json.dumps(res.values, sort_keys=True)}")


def run_workload(args, blas_before: dict) -> dict:
    work = OUT / f"{args.workload}-seed{args.seed}"
    setup = [] if args.trace else measure_setup(args.workload, args.seed)
    plan = prepare(workloads.workload_jobs(args.workload, args.seed), work)
    refs = load_reference()
    ref = (refs["workloads"].get(args.workload)
           if args.seed == DEFAULT_SEED else None)
    report = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "env": env_stamp(blas_before),
              "problems": []}

    if not args.trace:
        rounds = run_rounds(plan, work, args.seconds)
        metrics = end_to_end_metrics(rounds, setup)
        report["setup_samples_s"] = setup
    else:
        base = [run_round(plan, work)]
        # counts repeat exactly, so one traced round is enough; more
        # rounds only steady the per-layer medians
        rounds, tables, counts, tracer = run_traced(plan, work, args.seconds,
                                                    min_rounds=1)
        tracer.dump(work / "spans.npz")
        (work / "layers.json").write_text(json.dumps(tables, indent=1))
        metrics = traced_metrics(base, rounds, tables, counts)
        report["problems"] += trace_checks(tables, rounds)
        if any(c != counts[0] for c in counts[1:]):
            report["problems"].append("traced counts differ between rounds")
        if ref is not None and "trace" in ref:
            report["count_mismatches"] = [
                f"{k}: {counts[0].get(k)} != reference {v}"
                for k, v in ref["trace"].items() if counts[0].get(k) != v]
        report["trace_counts"] = counts[0]
        report["accept_ratios"] = accept_ratios(counts[0])
        report["layers"] = tables
        print_table(tables[0])
        for k, v in report["accept_ratios"].items():
            print(f"{k} = {'n/a (never called)' if v is None else v}")

    report["count_mismatches"] = (report.get("count_mismatches", [])
                                  + check_rounds(rounds, ref,
                                                 refs["tolerance"]))
    report["solve_rounds_s"] = solve_times(rounds)
    report["solve_rounds_wall_s"] = solve_times(rounds, wall=True)
    report["job_wall_s"] = [[r.wall_s for r in rnd] for rnd in rounds]
    report["job_calibration_s"] = [[r.calib_s for r in rnd]
                                   for rnd in rounds]
    report["jobs"] = {r.label: r.values for r in rounds[0]}
    report["attempted"], report["failed"] = tally(rounds)
    report["metrics"] = {k: {"value": v, "unit": u}
                         for k, (v, u) in metrics.items()}
    print_jobs(rounds)
    if ref is None:
        print(f"reference: none for {args.workload} at seed {args.seed}")
    else:
        print(f"reference: {len(report['count_mismatches'])} count "
              "mismatches" + "".join(f"\n  {m}"
                                     for m in report["count_mismatches"]))
    for problem in report["problems"]:
        print(f"trace check FAILED: {problem}")
    for key in ("solve_rounds_s", "solve_rounds_wall_s"):
        print(f"{key}: " + ", ".join(f"{s:.3f}" for s in report[key]))
    for k, (v, u) in metrics.items():
        print(f"{k} = {v:.6g} {u}")
    print(f"fail_frac = {report['failed']}/{report['attempted']} = "
          f"{report['failed'] / report['attempted']:.4g} ratio")
    print("env " + json.dumps(report["env"], sort_keys=True))
    name = f"result-trace{args.trace}.json"
    (work / name).write_text(json.dumps(report, indent=1, default=str))
    if args.write_reference:
        write_reference(refs, args, rounds, report)
    return report


def print_table(table: dict) -> None:
    print(f"{'span':40s} {'calls':>9s} {'self_s':>9s} {'total_s':>9s} "
          f"{'p50_us':>9s} {'p99_us':>9s}")
    rows = sorted(table["spans"].items(), key=lambda kv: -kv[1]["self_s"])
    for name, row in rows:
        pct = ["-" if row[k] is None else f"{row[k]:.1f}"
               for k in ("p50_us", "p99_us")]
        print(f"{name:40s} {row['calls']:9d} {row['self_s']:9.4f} "
              f"{row['total_s']:9.4f} {pct[0]:>9s} {pct[1]:>9s}")
    print(f"{'layer':40s} {'calls':>9s} {'self_s':>9s}")
    for layer, row in sorted(table["layers"].items()):
        print(f"{layer:40s} {row['calls']:9d} {row['self_s']:9.4f}")


def write_reference(refs: dict, args, rounds, report) -> None:
    if args.seed != DEFAULT_SEED or not args.trace:
        raise SystemExit("--write-reference needs --trace 1 and the "
                         f"default seed {DEFAULT_SEED}")
    refs["workloads"][args.workload] = {
        "seed": args.seed,
        "jobs": {r.label: r.values for r in rounds[0]},
        "trace": report["trace_counts"],
    }
    REFERENCE.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n",
                         encoding="utf-8")


def run_all(args) -> int:
    """Each workload in its own process, one after another."""
    results = {}
    for name in WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=600)
        print(proc.stdout, end="")
        lines = proc.stdout.strip().splitlines()
        results[name] = json.loads(lines[-1]) if proc.returncode == 0 \
            else None
    print("\nworkload         correct  fail_frac  metrics")
    for name, res in results.items():
        if res is None:
            print(f"{name:16s} run failed")
            continue
        frac = res["failed"] / res["attempted"]
        shown = ", ".join(f"{k}={m['value']:.4g} {m['unit']}"
                          for k, m in res["metrics"].items())
        print(f"{name:16s} {str(res['correct']):7s}  {frac:9.3g}  {shown}")
    return 0 if all(r and r["correct"] for r in results.values()) else 1


def main(argv=None, blas_before=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--write-reference", action="store_true",
                   help="store this traced run as the workload's reference")
    p.add_argument("--setup-probe", action="store_true",
                   help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if not (SRC / "marginflow" / "__init__.py").is_file():
        print(f"error: no marginflow sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        prepare(workloads.workload_jobs(args.workload, args.seed),
                OUT / f"{args.workload}-seed{args.seed}" / "probe")
        print("ready", flush=True)
        return 0
    if args.workload == "all":
        return run_all(args)
    report = run_workload(args, blas_before or {})
    correct = report["failed"] == 0 and not report["problems"]
    print(json.dumps({"correct": correct, "attempted": report["attempted"],
                      "failed": report["failed"],
                      "metrics": report["metrics"]}))
    return 0
