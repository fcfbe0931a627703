"""Scenario harness: configs, deterministic runs, and metric sinks.

A run is a scenario name plus a config mapping loaded from one YAML or
JSON file. Every output file embeds the config verbatim (JSONL header
line, CSV comment line, summary field) together with its sha256, so an
artifact is always traceable to its exact inputs. All randomness flows
through the seeds named in the config; rerunning a config reproduces
every numeric byte, with the wall-clock timestamp in the JSONL header
as the only difference. Scalar series may contain inf; JSONL keeps the
Python Infinity token rather than distorting values.

Scenario executions are independent per seed and write to per-seed
files, so seeds can run in parallel processes; the functions here
execute them sequentially, which is plenty at desk scale.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import asdict, dataclass, fields
from datetime import datetime, timezone
from pathlib import Path

import numpy as np
import yaml

from .datasets import from_rows, load_dataset, two_gaussians
from .gdtrain import (estimate_b_constants, gd_step, gd_step_direct,
                      sphere_sups, train_gd)
from .gradflow import (evaluate_point, flow_states, is_separated,
                       log_tilde_margin, run_flow, run_hat)
from .kkt import (build_certificate, direction_gap_to_svm, svm_oracle)
from .losses import get_loss, validate_b3
from .models import build_model, init_params
from .rates import bounded_ratio_verdict, rate_ratios

LOG10 = math.log(10.0)
# kkt-report checkpoints, as fractions of the target log(1/loss)
KKT_FRACTIONS = (0.125, 0.25, 0.5, 1.0)
# fixed 8-point separable set used by the linear scenario; margin 0.8
# along the first axis
LINEAR_2D_ROWS = [
    [2.2, 0.3, 1], [1.4, 1.1, 1], [1.9, -0.8, 1], [0.8, 0.9, 1],
    [-1.7, 0.4, -1], [-1.1, -1.0, -1], [-2.3, -0.5, -1], [-0.9, 0.8, -1],
]

# per scenario, one row: (model fields, dataset factory, loss, runs).
# A config's `model` fields, `dataset` and `loss` override the first
# three. The factories look the builders up when called, so a rebinding
# (perfbench's span tracer) reaches them. `runs` maps the optimizers
# the scenario runs (the first is its default) to the options that run
# reads and their defaults; a given option must have its default's type
# (an int may stand for a float).
_FLOW = {"theta0": None, "n_sphere": 2_000, "n_curvature": 500}
_GD = {**_FLOW, "s5_guard": True}
_GD_10K = {**_GD, "n_sphere": 10_000, "n_curvature": 1_000}
_README = ({"family": "relu_mlp", "input_dim": 2, "widths": [6]},
           lambda: two_gaussians(12, 2, separation=3.0, seed=5), "exp")
SETUPS = {
    "flow_margin": (*_README, {"flow": _FLOW}),
    "gd_margin": (*_README, dict.fromkeys(("gd_loss_based", "gd_const"), _GD)),
    "linear_logistic_2d": (
        {"family": "linear", "input_dim": 2},
        lambda: from_rows(LINEAR_2D_ROWS, provenance="linear_2d"),
        "logistic", {"flow": _FLOW}),
    "rates": (
        {"family": "relu_mlp", "input_dim": 2, "widths": [4]},
        lambda: two_gaussians(8, 2, separation=3.0, seed=5), "exp",
        {"flow": _FLOW,
         **dict.fromkeys(("gd_loss_based", "gd_const"), _GD_10K)}),
    # separation 4.0 with this seed is linearly separable (checked via
    # the projected-gradient dual); overlapping clusters stall GD on a
    # subdifferential crease long before the loss target
    "deep_loss_50": (
        {"family": "relu_mlp", "input_dim": 2, "widths": [12]},
        lambda: two_gaussians(50, 2, separation=4.0, seed=10), "exp",
        {"gd_loss_based": {**_GD_10K, "s5_guard": False}}),
    # no model, data or loss: the rotating construction is its own flow
    "mexican_hat": (None, None, None, {"flow": {
        "metric": "planar", "phi_gain_min": 4 * math.pi}}),
}


@dataclass(frozen=True)
class RunConfig:
    """Parsed run configuration; `raw` is the file content verbatim."""

    raw: dict
    scenario: str
    model: dict | None
    loss: str | None
    dataset: object | None
    optimizer: str
    alpha0: float
    epochs: int
    target_log_inv_loss: float
    step_tol: float
    seeds: tuple[int, ...]
    record_every: int
    out_dir: str
    options: dict

    @classmethod
    def from_dict(cls, raw: dict) -> "RunConfig":
        scenario = raw.get("scenario")
        if scenario not in SETUPS:
            raise ValueError(
                f"unknown scenario {scenario!r}; have {sorted(SETUPS)}")
        *_, loss, runs = SETUPS[scenario]
        optimizer = raw.get("optimizer", next(iter(runs)))
        given = raw.get("options") or {}
        top = {f.name for f in fields(cls)} - {"raw"} | {"seed"}
        for what, keys, have in [
                ("config key", raw, top),
                ("optimizer", [optimizer], runs),
                (f"{optimizer} option", given, runs.get(optimizer, {}))]:
            unknown = sorted(set(keys) - set(have))
            if unknown:
                raise ValueError(f"unknown {what} {unknown[0]!r} for "
                                 f"{scenario}; have {sorted(have)}")
        for key, v in given.items():
            t = type(runs[optimizer][key])
            if t is not type(None) and type(v) not in (t, {float: int}.get(t)):
                raise ValueError(
                    f"option {key!r} must be a {t.__name__}, got {v!r}")
        seeds = raw.get("seeds", [raw.get("seed", 0)])
        if isinstance(seeds, int):
            seeds = [seeds]
        # the output directory is the one env-var override
        out_dir = os.environ.get("MARGINFLOW_OUT", raw.get("out_dir", "runs"))
        alpha0 = float(raw.get("alpha0", 0.1))
        step_tol = float(raw.get("step_tol", 2e-3))
        record_every = int(raw.get("record_every", 1))
        for key, ok, need in [
                ("alpha0", alpha0 > 0.0, "positive"),
                ("step_tol", 0.0 < step_tol < math.inf, "positive and finite"),
                ("record_every", record_every >= 1, "at least 1")]:
            if not ok:
                raise ValueError(f"{key} must be {need}, got {raw[key]!r}")
        return cls(
            raw=raw, scenario=scenario, model=raw.get("model"),
            loss=raw.get("loss", loss), dataset=raw.get("dataset"),
            optimizer=optimizer, alpha0=alpha0,
            epochs=int(raw.get("epochs", 200)),
            target_log_inv_loss=float(raw.get("target_log_inv_loss", 30.0)),
            step_tol=step_tol, seeds=tuple(int(s) for s in seeds),
            record_every=record_every,
            out_dir=out_dir, options={
                k: given.get(k) if d is None else type(d)(given.get(k, d))
                for k, d in runs[optimizer].items()},
        )


def load_config(path) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        raw = yaml.safe_load(fh)
    if not isinstance(raw, dict):
        raise ValueError(f"{path}: config must be a mapping")
    return RunConfig.from_dict(raw)


def config_digest(raw: dict) -> str:
    canon = json.dumps(raw, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


# ----------------------------------------------------------------- sinks

def _jsonable(v):
    if isinstance(v, dict):
        return {k: _jsonable(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_jsonable(x) for x in v]
    if isinstance(v, np.ndarray):
        return v.tolist()
    return v.item() if isinstance(v, np.generic) else v


def write_jsonl(path: Path, cfg: RunConfig, seed: int, records) -> None:
    header = {
        "config": cfg.raw,
        "config_sha256": config_digest(cfg.raw),
        "seed": seed,
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }
    # json.dumps(sort_keys=True) builds this encoder per call; records
    # hold Python scalars and np.float64, a float encoded by its repr
    encode = json.JSONEncoder(sort_keys=True).encode
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(encode(_jsonable(header)) + "\n")
        for rec in records:
            fh.write(encode(rec) + "\n")


def _csv_cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        return repr(v)
    return str(v)


def write_csv(path: Path, cfg: RunConfig, columns, rows) -> None:
    lines = ["# config_sha256=" + config_digest(cfg.raw) + " config="
             + json.dumps(cfg.raw, sort_keys=True, separators=(",", ":")),
             ",".join(columns)]
    for row in rows:
        lines.append(",".join(_csv_cell(v) for v in row))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def emit_plot_data(trajectory, cfg: RunConfig, out_dir: Path,
                   prefix: str) -> dict[str, Path]:
    """Per-figure CSVs: loss decay, the three margins, and the step size."""
    axis = "step"
    if trajectory:
        first = trajectory[0]
        axis = next((k for k in ("epoch", "step", "t") if k in first), "step")
    loss_rows = [(rec[axis], rec["log_inv_loss"] / LOG10)
                 for rec in trajectory if "log_inv_loss" in rec]
    margin_rows = []
    alpha_rows = []
    for rec in trajectory:
        if "log_tilde" in rec or "bar_gamma" in rec:
            tilde = math.exp(rec["log_tilde"]) if "log_tilde" in rec else None
            hat = math.exp(rec["log_hat"]) if "log_hat" in rec else None
            margin_rows.append(
                (rec[axis], rec.get("bar_gamma"), tilde, hat))
        if "alpha" in rec:
            alpha_rows.append((rec[axis], rec["alpha"]))
    paths = {}
    for name, cols, rows in [
        ("loss", (axis, "log10_inv_loss"), loss_rows),
        ("margins", (axis, "bar_gamma", "tilde_gamma", "hat_gamma"),
         margin_rows),
        ("alpha", (axis, "alpha"), alpha_rows),
    ]:
        path = out_dir / f"{prefix}-{name}.csv"
        write_csv(path, cfg, cols, rows)
        paths[name] = path
    return paths


# ------------------------------------------------------------ helpers

def _setup(cfg: RunConfig, seed: int):
    """(model, dataset, loss spec, theta0) of a scenario's SETUPS row
    under the config's overrides; theta0 is `options.theta0`, else the
    seeded init at scale 0.7."""
    model_fields, dataset, _, _ = SETUPS[cfg.scenario]
    model = build_model(**{**model_fields, **(cfg.model or {})})
    ds = dataset() if cfg.dataset is None else load_dataset(cfg.dataset)
    need = 1 if ds.is_binary else int(ds.y.max()) + 1
    if model.num_outputs < need or ds.is_binary and model.num_outputs > 1:
        raise ValueError(f"model has num_outputs = {model.num_outputs}; "
                         f"the dataset's labels need {need}")
    theta0 = cfg.options["theta0"]
    theta0 = (np.asarray(theta0, dtype=np.float64) if theta0 is not None
              else init_params(model, np.random.default_rng(seed), scale=0.7))
    return model, ds, get_loss(cfg.loss), theta0


def _drive(cfg: RunConfig, seed: int, model, ds, spec, theta0):
    """(result, B-constants, failures) of the configured optimizer's run:
    `run_flow`'s result, or `train_gd`'s with its abort and missing
    margin state as failures.

    The B-constants are drawn before the run starts, None for labels
    other than -1/+1. Descent draws from the seed itself and the flow
    from seed + 10_007: perfbench/reference.json pins the gd_margin x on
    the B2 of that stream, through C_eta.
    """
    flow = cfg.optimizer == "flow"
    b = None
    if ds.is_binary:
        rng = np.random.default_rng(seed + 10_007 if flow else seed)
        b = estimate_b_constants(model, ds, rng, cfg.options["n_sphere"],
                                 cfg.options["n_curvature"])
    if flow:
        return run_flow(model, theta0, ds, spec,
                        target_log_inv_loss=cfg.target_log_inv_loss,
                        step_tol=cfg.step_tol,
                        record_every=cfg.record_every), b, []
    res = train_gd(
        model, theta0, ds, spec, b, epochs=cfg.epochs, alpha0=cfg.alpha0,
        mode=("constant_alpha" if cfg.optimizer == "gd_const"
              else "loss_based"),
        s5_guard=cfg.options["s5_guard"],
        # the share of the (S5) step size a guarded step may take
        guard_safety=0.9 if cfg.scenario == "rates" else 0.5)
    failures = [res["abort"]] if res["abort"] else []
    if b is None:
        failures.append(
            "no (S5) margin state: the B-constants need binary labels")
    return res, b, failures


def _b3_as_dict(report) -> dict:
    return {
        "loss": report.loss_name,
        "ok": report.ok,
        "clauses": [
            {"clause": c.clause, "passed": c.passed, "worst": c.worst}
            for c in report.clauses
        ],
    }


def _summary(cfg: RunConfig, seed: int, result: dict) -> dict:
    """A scenario's own summary fields inside the common envelope: run
    identity, the loss validation report, B-constants and failures."""
    spec, b = result["spec"], result["b"]
    return _jsonable({
        **result["summary"],
        "scenario": cfg.scenario, "seed": seed,
        "config_sha256": config_digest(cfg.raw),
        "loss_validation": (None if spec is None
                            else _b3_as_dict(validate_b3(spec))),
        "b_constants": None if b is None else asdict(b),
        "failures": result["failures"],
    })


def _sandwich_violations(records, order_L: float, n: int,
                         tol: float = 1e-12) -> int:
    """Count checkpoints violating bar - log(N)/rho^L <= tilde <= bar."""
    bad = 0
    for rec in records:
        if "log_tilde" not in rec:
            continue
        tilde = math.exp(rec["log_tilde"])
        bar = rec["bar_gamma"]
        lower = bar - math.log(n) / rec["rho"] ** order_L
        if not (lower - tol <= tilde <= bar + tol):
            bad += 1
    return bad


# ---------------------------------------------------------- scenarios

def _scenario_flow_margin(cfg: RunConfig, seed: int) -> dict:
    model, ds, spec, theta0 = _setup(cfg, seed)
    out, b, failures = _drive(cfg, seed, model, ds, spec, theta0)
    mon = out["monitors"]
    d_tilde = np.asarray(mon["d_log_tilde"])
    if d_tilde.size and float(d_tilde.min()) < math.log1p(-1e-6):
        failures.append(
            f"smoothed margin dropped by {d_tilde.min():.3e} in log terms")
    growth = np.abs(np.asarray(mon["growth_residual"]))
    growth_frac = float(np.mean(growth <= 1e-3)) if growth.size else 1.0
    if growth_frac < 0.95:
        failures.append(
            f"growth identity within 1e-3 on only {growth_frac:.1%} of steps")
    for key, bound, tol in [("nu_slack", "nu lower bound", 1e-9),
                            ("margin_slack", "margin rate bound", 1e-9),
                            ("upper_slack", "loss upper bound", 1e-6)]:
        if mon[key] and min(mon[key]) < -tol:
            failures.append(f"{bound} violated: {min(mon[key])}")
    if spec.name == "exp":
        bad = _sandwich_violations(out["records"], model.order_L, ds.n)
        if bad:
            failures.append(f"margin sandwich violated at {bad} checkpoints")
    state = out["state"]
    summary = {
        "final": {
            "t": state.t, "steps": state.steps, "x": state.ev.x,
            "rho": state.ev.rho, "q_min": float(np.min(state.ev.q)),
            "beta": state.ev.beta,
        },
        "monitor_stats": {
            "min_d_log_tilde": float(d_tilde.min()) if d_tilde.size else None,
            "growth_within_tol_frac": growth_frac,
            "min_nu_slack": min(mon["nu_slack"], default=None),
            "min_upper_slack": min(mon["upper_slack"], default=None),
        },
    }
    return {"records": out["records"], "summary": summary,
            "failures": failures, "csv": {}, "spec": spec, "b": b}


def _scenario_gd_margin(cfg: RunConfig, seed: int) -> dict:
    model, ds, spec, theta0 = _setup(cfg, seed)
    res, b, failures = _drive(cfg, seed, model, ds, spec, theta0)
    records = res["records"]
    if res["flagged_epochs"]:
        failures.append(f"scheduler stalled at epochs {res['flagged_epochs']}")
    s5 = res["monitors"]["s5_log_ratio"]
    if s5 and max(s5) > 1e-12:
        failures.append(f"step size exceeded the certified cap: {max(s5)}")
    hats = [math.exp(r["log_hat"]) for r in records if "log_hat" in r]
    drops = [b - a for a, b in zip(hats, hats[1:]) if b - a < -1e-10]
    if drops:
        failures.append(f"descent margin decreased by {min(drops):.3e}")
    order = 0
    for rec in records:
        if "log_hat" in rec and "log_tilde" in rec:
            hat = math.exp(rec["log_hat"])
            tilde = math.exp(rec["log_tilde"])
            if not (hat <= tilde + 1e-12 and tilde <= rec["bar_gamma"] + 1e-12):
                order += 1
    if order:
        failures.append(f"margin ordering violated at {order} epochs")
    mon = res["monitors"]
    for name, worst, tol in [
        ("rho_identity", max(mon["rho_identity"], default=0.0), 1e-9),
        ("euler_gap", max((abs(v) for v in mon["euler_gap"]), default=0.0),
         1e-12),
        ("p2_lower", -min(mon["p2_lower"], default=0.0), 1e-9),
        ("p2_upper", -min(mon["p2_upper"], default=0.0), 1e-9),
        ("p3_slack", -min(mon["p3_slack"], default=0.0), 1e-9),
        ("p4_slack", -min(mon["p4_slack"], default=0.0), 1e-10),
        ("grad_bound", -min(mon["grad_bound"], default=0.0), 1e-9),
    ]:
        if worst > tol:
            failures.append(f"monitor {name} out of tolerance: {worst:.3e}")
    summary = {
        "final": {
            "epochs": len(records), "x": res["ev"].x,
            "rho": res["ev"].rho, "alpha": res["alpha"],
            "log_sum_eta": res["log_sum_eta"],
        },
        "margin_series_len": len(hats),
    }
    return {"records": records, "summary": summary, "failures": failures,
            "csv": {}, "spec": spec, "b": b}


def _scenario_linear_logistic_2d(cfg: RunConfig, seed: int) -> dict:
    model, ds, spec, theta0 = _setup(cfg, seed)
    out, b, failures = _drive(cfg, seed, model, ds, spec, theta0)
    state = out["state"]
    gap = svm_margin = kkt = None
    if not ds.is_binary:
        failures += [f"no {what}: the labels are not -1/+1"
                     for what in ("SVM reference", "KKT certificate")]
    else:
        try:
            w_star, svm_margin = svm_oracle(ds.X, ds.y)
        except ValueError as err:  # over the enumeration size, or inseparable
            failures.append(f"no SVM reference: {err}")
        else:
            gap = direction_gap_to_svm(state.ev.theta, w_star)
            if gap > 0.02:
                failures.append(f"direction gap {gap:.4f} rad exceeds 0.02")
        if is_separated(state.ev, spec):
            cert = build_certificate(model, state.ev, ds, spec, b1=b.b1,
                                     log_tilde_t0=out["log_tilde0"])
            kkt = {
                "epsilon": cert.epsilon, "epsilon_beta": cert.epsilon_beta,
                "delta": cert.delta, "beta": cert.beta,
                "eps_bound": cert.eps_bound, "delta_bound": cert.delta_bound,
                "q_min": cert.q_min, "log_inv_loss": cert.log_inv_loss,
            }
        else:
            failures.append(
                f"no KKT certificate: not separated at x = {state.ev.x}")
    summary = {
        "svm_angle_gap": gap,
        "svm_margin": svm_margin,
        "kkt": kkt,
        "final": {"t": state.t, "x": state.ev.x, "rho": state.ev.rho},
    }
    return {"records": out["records"], "summary": summary,
            "failures": failures, "csv": {}, "spec": spec, "b": b}


def _scenario_rates(cfg: RunConfig, seed: int) -> dict:
    model, ds, spec, theta0 = _setup(cfg, seed)
    out, b, failures = _drive(cfg, seed, model, ds, spec, theta0)
    # a flow record is never flagged, and a flow run has no epochs
    records = [r for r in out["records"] if not r.get("flagged")]
    if out.get("flagged_epochs"):
        failures.append(f"scheduler stalled at epochs {out['flagged_epochs']}")
    diag = rate_ratios(records, spec, model.order_L, ds.n)
    verdict = bounded_ratio_verdict(diag)
    if verdict.inconclusive:
        failures.append(
            f"rate diagnostic inconclusive: {diag.decades:.2f} decades")
    elif not verdict.passed:
        failures.append(
            f"ratio factors {verdict.factor_loss:.2f}/{verdict.factor_rho:.2f}"
            f" exceed {verdict.bound_factor}")
    sep = [r["rho"] for r in records if r.get("q_min", 0.0) > 0.0]
    if any(b < a for a, b in zip(sep, sep[1:])):
        failures.append("weight norm decreased after separation")
    summary = {
        "rates": {
            "decades": diag.decades, "inconclusive": diag.inconclusive,
            "passed": verdict.passed, "factor_loss": verdict.factor_loss,
            "factor_rho": verdict.factor_rho, "window": verdict.window,
        },
    }
    csv = {"rates": (("log10_T", "ratio_loss", "ratio_rho"),
                     list(zip(diag.log10_T, diag.ratio_loss,
                              diag.ratio_rho)))}
    return {"records": records, "summary": summary, "failures": failures,
            "csv": csv, "spec": spec, "b": b}


def frame_equivalence_check(model, ds, spec, theta0, records,
                            x_stop: float = 575.0) -> dict:
    """Replay a `train_gd` run's accepted epochs in the relative frame
    and through a plain float64 loop side by side.

    The float64 path is valid while the loss stays above ~1e-250
    (x_stop), which is exactly the window where the two must agree.
    """
    theta_rel = theta_dir = theta0
    max_rel = 0.0
    epochs = 0
    x_reached = None
    for rec in records:
        ev = evaluate_point(model, theta_rel, ds, spec)
        if ev.x >= x_stop or rec["flagged"]:
            break
        theta_rel = gd_step(ev, rec["alpha"])
        theta_dir = gd_step_direct(model, ds, spec, theta_dir, rec["alpha"])
        rel = (np.linalg.norm(theta_rel - theta_dir)
               / np.linalg.norm(theta_dir))
        max_rel = max(max_rel, float(rel))
        epochs += 1
        x_reached = rec["log_inv_loss"]
    return {"max_rel": max_rel, "epochs": epochs, "x_reached": x_reached}


def _scenario_deep_loss(cfg: RunConfig, seed: int) -> dict:
    model, ds, spec, theta0 = _setup(cfg, seed)
    res, b, failures = _drive(cfg, seed, model, ds, spec, theta0)
    records = res["records"]
    final_log10 = min(
        (r["log10_loss"] for r in records if "log10_loss" in r),
        default=0.0)
    if final_log10 > -50.0:
        failures.append(
            f"loss only reached 1e{final_log10:.0f} in {len(records)} epochs")
        # a pre-target stall is the interesting diagnostic; racing far
        # past the target until the schedule abandons an epoch is not
        if res["flagged_epochs"]:
            failures.append(
                f"scheduler stalled at epochs {res['flagged_epochs']}")
    bad = [f"record {i} field {key} = {val}"
           for i, rec in enumerate(records) for key, val in rec.items()
           if isinstance(val, (int, float)) and not isinstance(val, bool)
           and not math.isfinite(val)]
    if bad:
        failures.append(f"non-finite record values: {bad[:3]}")
    frame = frame_equivalence_check(model, ds, spec, theta0, records)
    if frame["max_rel"] > 1e-8:
        failures.append(
            f"anchored and direct paths diverged: {frame['max_rel']:.2e}")
    alphas = [r["alpha"] for r in records]
    summary = {
        "final": {
            "epochs": len(records), "log10_loss": final_log10,
            "x": res["ev"].x, "alpha_min": min(alphas, default=None),
            "alpha_max": max(alphas, default=None),
        },
        "flagged_epochs": res["flagged_epochs"],
        "frame_equivalence": frame,
    }
    return {"records": records, "summary": summary, "failures": failures,
            "csv": {}, "spec": spec, "b": b}


def _scenario_mexican_hat(cfg: RunConfig, seed: int) -> dict:
    records = run_hat(metric=cfg.options["metric"],
                      record_every=cfg.record_every)
    psi_max = max(abs(r["psi"]) for r in records)
    phi_gain = records[-1]["phi"] - records[0]["phi"]
    r_final = records[-1]["r"]
    failures = []
    if psi_max > 1e-3:
        failures.append(f"spiral phase drifted to |psi| = {psi_max:.2e}")
    if r_final <= 0.99:
        failures.append(f"radius stalled at {r_final:.4f}")
    if phi_gain < cfg.options["phi_gain_min"]:
        failures.append(f"angle advanced only {phi_gain:.2f} rad")
    if records[-1]["clamped"]:
        failures.append("integrator clamped the radius")
    summary = {
        "hat": {"psi_max": psi_max, "r_final": r_final,
                "phi_gain": phi_gain, "records": len(records)},
    }
    csv = {"hat": (("t", "r", "phi", "psi", "rho"),
                   [(r["t"], r["r"], r["phi"], r["psi"], r["rho"])
                    for r in records])}
    # no classification loss in this scenario
    return {"records": records, "summary": summary, "failures": failures,
            "csv": csv, "spec": None, "b": None}


SCENARIOS = {
    "flow_margin": _scenario_flow_margin,
    "gd_margin": _scenario_gd_margin,
    "linear_logistic_2d": _scenario_linear_logistic_2d,
    "rates": _scenario_rates,
    "deep_loss_50": _scenario_deep_loss,
    "mexican_hat": _scenario_mexican_hat,
}


@dataclass(frozen=True)
class RunOutcome:
    summaries: list[dict]
    failures: list[str]
    paths: list[Path]

    @property
    def ok(self) -> bool:
        return not self.failures


def run_scenario(cfg: RunConfig, seed: int | None = None,
                 out_dir=None) -> RunOutcome:
    """Execute the configured scenario for each seed and write sinks."""
    out = Path(out_dir if out_dir is not None else cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    fn = SCENARIOS[cfg.scenario]
    seeds = (seed,) if seed is not None else cfg.seeds
    summaries = []
    failures = []
    paths = []
    for s in seeds:
        result = fn(cfg, s)
        summary = _summary(cfg, s, result)
        prefix = f"{cfg.scenario}-seed{s}"
        jsonl = out / f"{prefix}.jsonl"
        write_jsonl(jsonl, cfg, s, result["records"])
        paths.append(jsonl)
        spath = out / f"{prefix}.summary.json"
        spath.write_text(
            json.dumps(summary, sort_keys=True, indent=2) + "\n",
            encoding="utf-8")
        paths.append(spath)
        paths.extend(
            emit_plot_data(result["records"], cfg, out, prefix).values())
        for name, (cols, rows) in result["csv"].items():
            cpath = out / f"{prefix}-{name}.csv"
            write_csv(cpath, cfg, cols, rows)
            paths.append(cpath)
        summaries.append(summary)
        failures.extend(f"seed {s}: {msg}" for msg in result["failures"])
    return RunOutcome(summaries=summaries, failures=failures, paths=paths)


def kkt_report(cfg: RunConfig, seed: int) -> dict:
    """Certificates at geometrically spaced checkpoints of a flow run.

    The run is `run`'s on the same config, and the bounds are anchored
    as there, at the first separated state, the start included. A
    checkpoint is certified only once the run is separated, (B4). One
    that the flow reaches before that, or never reaches (it stopped,
    stationary or out of steps), is left out and named in `failures`, a
    key present only when a checkpoint is missing; labels other than
    -1/+1 get no certificate, and that failure.
    """
    model, ds, spec, theta0 = _setup(cfg, seed)
    report = {"config_sha256": config_digest(cfg.raw), "seed": seed,
              "loss": spec.name, "kkt": []}
    if not ds.is_binary:
        report["failures"] = ["no KKT certificate: the labels are not -1/+1"]
        return report
    b1 = sphere_sups(model, ds.X)[1]
    anchor = None  # as run_flow's log_tilde0
    failures = []
    targets = [cfg.target_log_inv_loss * f for f in KKT_FRACTIONS]
    for state, _ in flow_states(model, theta0, ds, spec,
                                step_tol=cfg.step_tol):
        if anchor is None and is_separated(state.ev, spec):
            lt = log_tilde_margin(state.ev, spec, model.order_L)
            anchor = lt if math.isfinite(lt) else None
        while targets and state.ev.x >= targets[0]:
            x_target = targets.pop(0)
            if not is_separated(state.ev, spec):
                failures.append(f"checkpoint x >= {x_target}: not separated "
                                f"at x = {state.ev.x}")
            else:
                cert = build_certificate(model, state.ev, ds, spec,
                                         log_tilde_t0=anchor, b1=b1)
                report["kkt"].append({
                    "x": cert.log_inv_loss, "epsilon": cert.epsilon,
                    "epsilon_beta": cert.epsilon_beta, "delta": cert.delta,
                    "beta": cert.beta, "q_min": cert.q_min, "rho": cert.rho,
                    "eps_bound": cert.eps_bound,
                    "delta_bound": cert.delta_bound, "lambdas": cert.lambdas,
                })
        if not targets:
            break
    else:
        failures.append(f"flow stopped at x = {state.ev.x} before "
                        f"checkpoint x >= {targets[0]}")
    if failures:
        report["failures"] = failures
    return report
