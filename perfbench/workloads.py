"""Benchmark workloads: the jobs each one runs, and how a job is checked.

A job is one `marginflow` command line (`run` or `kkt-report`) on one
generated YAML config. The workload seed reaches only inputs whose
checks passed at every seed tried: the flow init seeds of `flow_small`
and a jitter of the linear model's start in `certify_linear`.
`flow_wide` and `gd_loss_based` run fixed inputs: at other init seeds
their scenarios report real check failures (listed in README.md), which
a performance workload must not contain.

`inspect_job` reads the job's emitted files (or the printed report) and
returns the values the reference check compares, the work units the job
completed (flow steps, GD epochs, hat steps), and its failures. Integer
values are deterministic counts; float values are final results.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

DEFAULT_SEED = 0

README_FLOW = {
    "scenario": "flow_margin", "loss": "exp",
    "model": {"family": "relu_mlp", "input_dim": 2, "widths": [6]},
    "dataset": {"kind": "two_gaussians", "n": 12, "dim": 2,
                "separation": 3.0, "seed": 5},
    "target_log_inv_loss": 30.0, "step_tol": 0.002, "record_every": 10,
}
WIDE_FLOW = {
    "scenario": "flow_margin", "loss": "exp",
    "model": {"family": "relu_mlp", "input_dim": 8, "widths": [48, 48]},
    "dataset": {"kind": "two_gaussians", "n": 192, "dim": 8,
                "separation": 3.0, "seed": 5},
    "target_log_inv_loss": 5.0, "step_tol": 0.002, "record_every": 1,
    "seeds": [0],
}
DEEP_LOSS = {"scenario": "deep_loss_50", "loss": "exp",
             "optimizer": "gd_loss_based", "alpha0": 0.1, "epochs": 500,
             "seeds": [0]}
GD_LOGISTIC = {"scenario": "gd_margin", "loss": "logistic",
               "optimizer": "gd_loss_based", "alpha0": 0.05, "epochs": 400,
               "seeds": [0]}
LINEAR_START = (0.2, -0.1)


@dataclass(frozen=True)
class Job:
    label: str
    verb: str
    config: dict


def _flow_small(rng) -> list[Job]:
    init = [int(s) for s in rng.integers(0, 2**31 - 1, size=3)]
    jobs = [Job(f"flow_margin.{i}", "run", {**README_FLOW, "seeds": [s]})
            for i, s in enumerate(init[:2])]
    jobs.append(Job("rates", "run", {
        "scenario": "rates", "loss": "exp",
        "model": README_FLOW["model"], "dataset": README_FLOW["dataset"],
        "target_log_inv_loss": 18.0, "step_tol": 0.002, "seeds": [init[2]]}))
    return jobs


def _flow_wide(rng) -> list[Job]:
    return [Job("flow_margin", "run", WIDE_FLOW)]


def _gd_loss_based(rng) -> list[Job]:
    return [Job("deep_loss_50", "run", DEEP_LOSS),
            Job("gd_margin", "run", GD_LOGISTIC)]


def _certify_linear(rng) -> list[Job]:
    theta0 = [round(float(v), 6)
              for v in np.add(LINEAR_START, rng.normal(0.0, 0.02, size=2))]
    linear = {"scenario": "linear_logistic_2d", "loss": "logistic",
              "options": {"theta0": theta0}, "seeds": [0]}
    return [
        Job("linear_logistic_2d", "run",
            {**linear, "target_log_inv_loss": 200.0}),
        # above x ~ 100 the certificate residual sits at the float64
        # floor and stops tightening, so the report stops at x = 60
        Job("kkt_report", "kkt-report",
            {**linear, "target_log_inv_loss": 60.0, "step_tol": 0.003}),
        Job("mexican_hat", "run", {"scenario": "mexican_hat", "seeds": [0]}),
    ]


WORKLOADS = {
    "flow_small": _flow_small,
    "flow_wide": _flow_wide,
    "gd_loss_based": _gd_loss_based,
    "certify_linear": _certify_linear,
}


def workload_jobs(name: str, seed: int) -> list[Job]:
    rng = np.random.default_rng([list(WORKLOADS).index(name), seed])
    return WORKLOADS[name](rng)


def _read_jsonl(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh][1:]  # skip the header


def _draws(summary) -> int:
    b = summary["b_constants"]
    return int(b["n_sphere"] + b["n_curvature"]) if b else 0


def inspect_job(job: Job, out_dir: Path, stdout: str):
    """(values, work units, failures) for one finished job."""
    cfg = job.config
    target = cfg.get("target_log_inv_loss")
    if job.verb == "kkt-report":
        checkpoints = json.loads(stdout)["kkt"]
        eps = [c["epsilon"] for c in checkpoints]
        last = checkpoints[-1]
        failures = []
        if len(eps) != 4 or eps != sorted(eps, reverse=True):
            failures.append(f"certificates did not tighten: {eps}")
        if last["x"] < target:
            failures.append(f"last checkpoint at x={last['x']} < {target}")
        values = {"checkpoints": len(checkpoints), "x": last["x"],
                  "epsilon": last["epsilon"], "q_min": last["q_min"],
                  "rho": last["rho"]}
        return values, 0, failures

    scenario, seed = cfg["scenario"], cfg["seeds"][0]
    prefix = out_dir / f"{scenario}-seed{seed}"
    summary = json.loads(Path(f"{prefix}.summary.json").read_text())
    records = _read_jsonl(Path(f"{prefix}.jsonl"))
    failures = list(summary["failures"])
    final = summary.get("final", {})
    last = records[-1]
    if scenario == "flow_margin":
        values = {"steps": final["steps"], "draws": _draws(summary),
                  "x": final["x"], "rho": final["rho"],
                  "q_min": final["q_min"]}
        work = final["steps"]
    elif scenario == "rates":
        values = {"steps": last["step"], "draws": _draws(summary),
                  "x": last["log_inv_loss"], "rho": last["rho"],
                  "q_min": last["q_min"],
                  "decades": summary["rates"]["decades"]}
        work = last["step"]
    elif scenario == "linear_logistic_2d":
        values = {"steps": last["step"], "draws": _draws(summary),
                  "x": final["x"], "rho": final["rho"],
                  "svm_angle_gap": summary["svm_angle_gap"],
                  "q_min": summary["kkt"]["q_min"],
                  "epsilon": summary["kkt"]["epsilon"]}
        work = last["step"]
    elif scenario in ("deep_loss_50", "gd_margin"):
        values = {"epochs": final["epochs"], "draws": _draws(summary),
                  "retries": sum(r["retries"] for r in records),
                  "x": final["x"]}
        if scenario == "deep_loss_50":
            values["frame_epochs"] = summary["frame_equivalence"]["epochs"]
            values["log10_loss"] = final["log10_loss"]
        else:
            values["rho"] = final["rho"]
        work = final["epochs"]
    elif scenario == "mexican_hat":
        hat = summary["hat"]
        values = {"steps": hat["records"] - 1, "r_final": hat["r_final"],
                  "phi_gain": hat["phi_gain"], "psi_max": hat["psi_max"]}
        work = hat["records"] - 1  # record_every 1: one record per step
    else:
        raise ValueError(f"no inspector for scenario {scenario!r}")

    if scenario == "deep_loss_50":
        limit = cfg.get("options", {}).get("log10_loss_target", -50.0)
        if values["log10_loss"] > limit:
            failures.append(f"loss reached only 1e{values['log10_loss']:.0f}")
    elif scenario == "gd_margin":
        if values["epochs"] != cfg["epochs"]:
            failures.append(
                f"ran {values['epochs']} of {cfg['epochs']} epochs")
    elif target is not None and not values["x"] >= target:
        failures.append(f"x={values['x']} short of target {target}")
    bad = [k for k, v in values.items()
           if isinstance(v, float) and not math.isfinite(v)]
    if bad:
        failures.append(f"non-finite final values: {bad}")
    return values, work, failures


def compare_reference(label: str, values: dict, ref: dict,
                      tolerance: dict):
    """(count mismatches, value failures) of one job against its reference.

    Counts must match exactly; a mismatch is reported by name but does
    not fail the job, since a change to the arithmetic order may move a
    count by a step. A float fails the job when it is further from the
    reference than max(rel * |reference|, abs) of its stated tolerance;
    `tolerance` maps a value name, or `<job label>.<name>`, to
    [rel, abs], or to null for a value that is reported but not
    compared because rounding-level changes move it chaotically.
    """
    mismatches, failures = [], []
    for key in sorted(set(values) | set(ref)):
        got, want = values.get(key), ref.get(key)
        if isinstance(want, int) and not isinstance(want, bool):
            if got != want:
                mismatches.append(f"{key}: {got} != reference {want}")
            continue
        tol = tolerance.get(f"{label}.{key}", tolerance.get(key, "missing"))
        if tol is None:
            continue
        if tol == "missing" or got is None or want is None:
            failures.append(f"{key}: {got!r} vs reference {want!r} "
                            f"(tolerance {tol})")
        elif not abs(got - want) <= max(tol[0] * abs(want), tol[1]):
            failures.append(f"{key}: {got!r} outside {tol} of reference "
                            f"{want!r}")
    return mismatches, failures
