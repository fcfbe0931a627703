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
import inspect
import json
import math
import operator
import os
from dataclasses import asdict, dataclass
from datetime import datetime, timezone
from pathlib import Path

import numpy as np
import yaml

from .datasets import KINDS, Dataset, load_dataset
from .gdtrain import (estimate_b_constants, gd_step, gd_step_direct,
                      sphere_sups, train_gd)
from .gradflow import (Evaluator, evaluate_point, flow_states, is_separated,
                       log_tilde_margin, run_flow, run_hat)
from .kkt import (build_certificate, direction_gap_to_svm, svm_oracle)
from .losses import LossSpec, get_loss, validate_b3
from .models import FAMILIES, HomogeneousModel, build_model, init_params
from .rates import MIN_DECADES, bounded_ratio_verdict, rate_ratios

LOG10 = math.log(10.0)
# kkt-report checkpoints, as fractions of the target log(1/loss)
KKT_FRACTIONS = (0.125, 0.25, 0.5, 1.0)
# fixed 8-point separable set used by the linear scenario; margin 0.8
# along the first axis
LINEAR_2D_ROWS = [
    [2.2, 0.3, 1], [1.4, 1.1, 1], [1.9, -0.8, 1], [0.8, 0.9, 1],
    [-1.7, 0.4, -1], [-1.1, -1.0, -1], [-2.3, -0.5, -1], [-0.9, 0.8, -1],
]

# per scenario, one row: (model, dataset, loss, runs). A config's
# `model`, `dataset` and `loss` each replace the row's whole, and all
# three are built at load. `runs` maps the optimizers the scenario runs
# (the first is its default) to each key that run reads, with its
# default; the run's options are under "options".
_SAMPLES = {"theta0": None, "n_sphere": 2_000, "n_curvature": 500}
_FLOW = {"target_log_inv_loss": 30.0, "step_tol": 2e-3, "record_every": 1,
         "options": _SAMPLES}
_GD = {"alpha0": 0.1, "epochs": 200, "options": {**_SAMPLES, "s5_guard": True}}
_GD_10K = {**_GD, "options": {**_GD["options"], "n_sphere": 10_000,
                              "n_curvature": 1_000}}
_README = ({"family": "relu_mlp", "input_dim": 2, "widths": [6]},
           {"kind": "two_gaussians", "n": 12, "seed": 5}, "exp")
SETUPS = {
    "flow_margin": (*_README, {"flow": _FLOW}),
    "gd_margin": (*_README, dict.fromkeys(("gd_loss_based", "gd_const"), _GD)),
    "linear_logistic_2d": (
        {"family": "linear", "input_dim": 2},
        {"kind": "inline", "rows": LINEAR_2D_ROWS}, "logistic",
        {"flow": _FLOW}),
    "rates": (
        {"family": "relu_mlp", "input_dim": 2, "widths": [4]},
        {"kind": "two_gaussians", "n": 8, "seed": 5}, "exp",
        {"flow": _FLOW,
         **dict.fromkeys(("gd_loss_based", "gd_const"), _GD_10K)}),
    # separation 4.0 with this seed is linearly separable (checked via
    # the projected-gradient dual); overlapping clusters stall GD on a
    # subdifferential crease long before the loss target
    "deep_loss_50": (
        {"family": "relu_mlp", "input_dim": 2, "widths": [12]},
        {"kind": "two_gaussians", "n": 50, "separation": 4.0, "seed": 10},
        "exp", {"gd_loss_based": {**_GD_10K, "options": {
            **_GD_10K["options"], "s5_guard": False}}}),
    # no model, data or loss: the rotating construction is its own flow
    "mexican_hat": (None, None, None, {"flow": {"record_every": 1, "options": {
        "metric": "planar", "phi_gain_min": 4 * math.pi}}}),
}


def _read(given: dict, table: dict, what: str, where: str) -> dict:
    """`table` with `given`'s values for its defaults; a key outside it,
    a key whose default is a type but missing from `given`, or a value
    not of its default's type (an int may stand for a float, and a None
    default takes any value) raises a ValueError naming it."""
    unknown = sorted(set(given) - set(table))
    if unknown:
        raise ValueError(f"unknown {what} {unknown[0]!r} for {where}; "
                         f"have {sorted(table)}")
    out = {}
    for key, d in table.items():
        t = d if isinstance(d, type) else type(d)
        if t is d and key not in given:
            raise ValueError(f"{what} {key!r} is required for {where}")
        v = given.get(key, d)
        if t is not type(None) and type(v) not in (t, {float: int}.get(t)):
            raise ValueError(
                f"{what} {key!r} must be a {t.__name__}, got {v!r}")
        out[key] = v if t is type(None) else t(v)
    return out


def _section(section, name: str, builders: dict, what: str) -> dict:
    """`section` read against the builder in `builders` that its key
    `name` picks: the builder's parameters, with their defaults, or with
    their annotated types where they have none, are its other keys."""
    pick = str(section.get(name)) if type(section) is dict else repr(section)
    _read({pick: None}, dict.fromkeys(builders), f"{what} {name}",
          "the config")
    params = inspect.signature(builders[pick], eval_str=True).parameters
    table = {k: getattr(p.annotation, "__origin__", p.annotation)
             if p.default is p.empty else p.default for k, p in params.items()}
    rest = {k: v for k, v in section.items() if k != name}
    return {name: pick, **_read(rest, table, f"{what} key", f"{name} {pick}")}


@dataclass(frozen=True)
class RunConfig:
    """Parsed run configuration: `raw` is the file content verbatim, and
    `options` maps each key of the run's `SETUPS` table to its value."""

    raw: dict
    scenario: str
    model: HomogeneousModel | None
    loss: LossSpec | None
    dataset: Dataset | None
    optimizer: str
    seeds: tuple[int, ...]
    out_dir: str
    options: dict

    @classmethod
    def from_dict(cls, raw: dict) -> "RunConfig":
        scenario = str(raw.get("scenario"))
        _read({scenario: None}, dict.fromkeys(SETUPS), "scenario",
              "the config")
        model, dataset, loss, runs = SETUPS[scenario]
        optimizer = str(raw.get("optimizer", next(iter(runs))))
        _read({optimizer: None}, dict.fromkeys(runs), "optimizer", scenario)
        # the keys every run reads, and a row with a model its sections
        shared = {"scenario": None, "optimizer": None, "seed": 0,
                  "seeds": [0], "out_dir": "runs",
                  **({"model": None, "dataset": None, "loss": loss}
                     if model else {})}
        run = runs[optimizer]
        top = _read(raw, {**shared, **run}, "config key", scenario)
        options = {k: top[k] for k in run if k != "options"}
        # each a finite number, and positive but for the target
        for key, v in options.items():
            pos = key != "target_log_inv_loss"
            if not (0 if pos else -math.inf) < v < math.inf:
                raise ValueError(
                    f"{key} must be {'positive and ' * pos}finite, got {v!r}")
        options.update(_read(top["options"], run["options"],
                             f"{optimizer} option", scenario))
        if model:
            # null keeps the row's section; a dataset string is a CSV path
            data = dataset if top["dataset"] is None else top["dataset"]
            net = model if top["model"] is None else top["model"]
            model = build_model(**_section(net, "family", FAMILIES, "model"))
            data = _section({"kind": "csv", "path": data} if type(data) is str
                            else data, "kind", KINDS, "dataset")
            for key in ("path", "images_path", "labels_path"):
                if key in data and not os.path.isfile(data[key]):
                    raise ValueError(f"dataset {key!r}: no file {data[key]!r}")
            dataset = load_dataset(data)
            if (width := model.blocks[0].shape[0]) != dataset.X.shape[1]:
                raise ValueError(f"model has input_dim = {width}; the "
                                 f"dataset has {dataset.X.shape[1]} features")
            need = 1 if dataset.is_binary else int(dataset.y.max()) + 1
            if (c := model.num_outputs) < need or dataset.is_binary and c > 1:
                raise ValueError(f"model has num_outputs = {c}; the "
                                 f"dataset's labels need {need}")
            loss = get_loss(top["loss"])
        theta0 = options.get("theta0")
        if theta0 is not None and (
                type(theta0) is not list or len(theta0) != model.param_count
                or not all(type(v) in (int, float) and math.isfinite(v)
                           for v in theta0)):
            raise ValueError(f"theta0 must be a list of {model.param_count} "
                             f"finite numbers, got {theta0!r}")
        seeds = top["seeds"] if "seeds" in raw else [top["seed"]]
        if ("seed" in raw and "seeds" in raw or not seeds
                or any(type(s) is not int for s in seeds)):
            raise ValueError("give seed (an int) or seeds (a non-empty list "
                             f"of ints), not both; got seeds {seeds!r}")
        return cls(
            raw=raw, scenario=scenario, model=model, loss=loss,
            dataset=dataset, optimizer=optimizer, seeds=tuple(seeds),
            out_dir=top["out_dir"],
            options=options)


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
    if isinstance(v, float):  # np.float64 too, whose repr names its type
        return repr(float(v))
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

# a flow state's growth identity holds within this residual
GROWTH_TOL = 1e-3
# frame_equivalence_check replays while the loss stays above ~1e-250,
# where the plain float64 path is valid
FRAME_X_STOP = 575.0
# the slack of the exp margin sandwich and of descent's margin ordering
ORDER_TOL = 1e-12
# deep_loss_50's target: the loss must reach 1e-50
DEEP_LOSS_LOG10 = -50.0
_SYMBOLS = {operator.lt: "<", operator.le: "<=", operator.gt: ">",
            operator.ge: ">=", operator.eq: "=="}


def _result(records, b, failures: list, rows, csv=None, **summary) -> dict:
    """A scenario's result, its bound checks judged: each row (name,
    worst, comparison, bound) becomes `summary["checks"][name]`, {worst,
    bound, ok} with ok = comparison(worst, bound), and a row that fails
    appends one text to `failures`. A row whose worst is None (its series
    is empty) passes; a NaN worst fails. `csv` maps names to (columns,
    rows)."""
    checks = summary["checks"] = {}
    for name, worst, comparison, bound in rows:
        worst = _jsonable(worst)
        ok = worst is None or bool(comparison(worst, bound))
        checks[name] = {"worst": worst, "bound": bound, "ok": ok}
        if not ok:
            failures.append(
                f"{name} = {worst!r}, not {_SYMBOLS[comparison]} {bound!r}")
    return {"records": records, "summary": summary, "failures": failures,
            "csv": csv or {}, "b": b}


def _worst(series, pick=max) -> float | None:
    """pick (max or min) of a series, the first of equal terms; None if
    it is empty, NaN if any term is (min and max skip a NaN not first).
    The max of lhs - rhs over pairs is at most 0 iff every lhs <= rhs,
    as a float difference keeps the sign of the exact one."""
    series = list(series)
    return (math.nan if any(v != v for v in series)
            else pick(series, default=None))


def _theta0(cfg: RunConfig, seed: int) -> np.ndarray:
    """`options.theta0`, else the seeded init at scale 0.7."""
    theta0 = cfg.options["theta0"]
    if theta0 is not None:
        return np.asarray(theta0, dtype=np.float64)
    return init_params(cfg.model, np.random.default_rng(seed), scale=0.7)


def _drive(cfg: RunConfig, seed: int):
    """(result, B-constants, failures) of the configured optimizer's run
    from `_theta0`: `run_flow`'s result, with a stop short of the target
    (stationary, or out of steps) as a failure, or `train_gd`'s with its
    abort and missing margin state as failures.

    The B-constants are drawn before the run starts, None for labels
    other than -1/+1. Descent draws from the seed itself and the flow
    from seed + 10_007: perfbench/reference.json pins the gd_margin x on
    the B2 of that stream, through C_eta.
    """
    flow = cfg.optimizer == "flow"
    model, ds, spec, o = cfg.model, cfg.dataset, cfg.loss, cfg.options
    theta0, b = _theta0(cfg, seed), None
    if ds.is_binary:
        rng = np.random.default_rng(seed + 10_007 if flow else seed)
        b = estimate_b_constants(model, ds, rng, o["n_sphere"],
                                 o["n_curvature"])
    if flow:
        target = o["target_log_inv_loss"]
        out = run_flow(model, theta0, ds, spec, target_log_inv_loss=target,
                       step_tol=o["step_tol"], record_every=o["record_every"])
        state = out["state"]
        return out, b, [] if state.ev.x >= target else [
            f"flow stopped at x = {state.ev.x} after {state.steps} steps, "
            f"short of its target x >= {target}"]
    res = train_gd(
        model, theta0, ds, spec, b, epochs=o["epochs"], alpha0=o["alpha0"],
        mode=("constant_alpha" if cfg.optimizer == "gd_const"
              else "loss_based"),
        s5_guard=o["s5_guard"],
        # the share of the (S5) step a guarded step may take; `rates` needs
        # 0.9 for its span: at 0.5 the corpus `rates_gd` spans 3.08 decades
        # of T, near the verdict's 3 (4.61 at 0.9), tests' RATES_GD 6.37 (8.47)
        guard_safety=0.9 if cfg.scenario == "rates" else 0.5)
    failures = [res["abort"]] if res["abort"] else []
    if b is None:
        failures.append(
            "no (S5) margin state: the B-constants need binary labels")
    return res, b, failures


def _summary(cfg: RunConfig, seed: int, result: dict) -> dict:
    """A scenario's own summary fields inside the common envelope: run
    identity, the loss validation report, B-constants and failures."""
    b = result["b"]
    return _jsonable({
        **result["summary"],
        "scenario": cfg.scenario, "seed": seed,
        "config_sha256": config_digest(cfg.raw),
        "loss_validation": None if cfg.loss is None else validate_b3(cfg.loss),
        "b_constants": None if b is None else asdict(b),
        "failures": result["failures"],
    })


# ---------------------------------------------------------- scenarios

def _scenario_flow_margin(cfg: RunConfig, seed: int) -> dict:
    out, b, failures = _drive(cfg, seed)
    mon, state, L = out["monitors"], out["state"], cfg.model.order_L
    growth = np.abs(np.asarray(mon["growth_residual"]))
    sandwich = None
    if cfg.loss.name == "exp":  # bar - log(N)/rho^L <= tilde <= bar
        log_n = math.log(cfg.dataset.n)
        sandwich = _worst(
            d for r in out["records"] if "log_tilde" in r
            for tilde, bar in [(math.exp(r["log_tilde"]), r["bar_gamma"])]
            for d in [bar - log_n / r["rho"] ** L - ORDER_TOL - tilde,
                      tilde - (bar + ORDER_TOL)])
    return _result(out["records"], b, failures, [
        ("d_log_tilde", _worst(mon["d_log_tilde"], min), operator.ge,
         math.log1p(-1e-6)),
        ("growth_within_tol_frac", float(np.mean(growth <= GROWTH_TOL))
         if growth.size else None, operator.ge, 0.95),
        *((key, _worst(mon[key], min), operator.ge, -tol)
          for key, tol in [("nu_slack", 1e-9), ("margin_slack", 1e-9),
                           ("upper_slack", 1e-6)]),
        ("sandwich_excess", sandwich, operator.le, 0.0),
    ], final={
        "t": state.t, "steps": state.steps, "x": state.ev.x,
        "rho": state.ev.rho, "q_min": float(np.min(state.ev.q)),
        "beta": state.ev.beta,
    })


def _scenario_gd_margin(cfg: RunConfig, seed: int) -> dict:
    res, b, failures = _drive(cfg, seed)
    records, mon = res["records"], res["monitors"]
    if res["flagged_epochs"]:
        failures.append(f"scheduler stalled at epochs {res['flagged_epochs']}")
    hats = [math.exp(r["log_hat"]) for r in records if "log_hat" in r]
    return _result(records, b, failures, [
        ("s5_log_ratio", _worst(mon["s5_log_ratio"]), operator.le, 1e-12),
        ("hat_step", _worst((v - u for u, v in zip(hats, hats[1:])), min),
         operator.ge, -1e-10),
        # hat <= tilde <= bar at each epoch
        ("ordering_excess", _worst(
            d for r in records if "log_hat" in r and "log_tilde" in r
            for tilde in [math.exp(r["log_tilde"])]
            for d in [math.exp(r["log_hat"]) - (tilde + ORDER_TOL),
                      tilde - (r["bar_gamma"] + ORDER_TOL)]),
         operator.le, 0.0),
        ("rho_identity", _worst(mon["rho_identity"]), operator.le, 1e-9),
        ("euler_gap", _worst(abs(v) for v in mon["euler_gap"]),
         operator.le, 1e-12),
        *((key, _worst(mon[key], min), operator.ge, -tol)
          for key, tol in [("p2_lower", 1e-9), ("p2_upper", 1e-9),
                           ("p3_slack", 1e-9), ("p4_slack", 1e-10),
                           ("grad_bound", 1e-9)]),
    ], final={
        "epochs": len(records), "x": res["ev"].x, "rho": res["ev"].rho,
        "alpha": res["alpha"], "log_sum_eta": res["log_sum_eta"],
    }, margin_series_len=len(hats))


def _scenario_linear_logistic_2d(cfg: RunConfig, seed: int) -> dict:
    out, b, failures = _drive(cfg, seed)
    model, ds, spec, state = cfg.model, cfg.dataset, cfg.loss, out["state"]
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
        if is_separated(state.ev, spec):
            kkt = build_certificate(model, state.ev, ds, spec, b1=b.b1,
                                    log_tilde_t0=out["log_tilde0"])
            del kkt["lambdas"], kkt["rho"]
        else:
            failures.append(
                f"no KKT certificate: not separated at x = {state.ev.x}")
    return _result(out["records"], b, failures,
                   [("svm_angle_gap", gap, operator.le, 0.02)],
                   svm_angle_gap=gap, svm_margin=svm_margin, kkt=kkt,
                   final={"t": state.t, "x": state.ev.x, "rho": state.ev.rho})


def _scenario_rates(cfg: RunConfig, seed: int) -> dict:
    out, b, failures = _drive(cfg, seed)
    # a flow record is never flagged, and a flow run has no epochs
    records = [r for r in out["records"] if not r.get("flagged")]
    if out.get("flagged_epochs"):
        failures.append(f"scheduler stalled at epochs {out['flagged_epochs']}")
    diag = rate_ratios(records, cfg.loss, cfg.model.order_L, cfg.dataset.n)
    verdict = bounded_ratio_verdict(diag)
    sep = [r["rho"] for r in records if r.get("q_min", 0.0) > 0.0]
    columns = ("log10_T", "ratio_loss", "ratio_rho")
    return _result(records, b, failures, [
        ("decades", diag["decades"], operator.ge, MIN_DECADES),
        # an inconclusive diagnostic has no factors to judge
        ("ratio_factor", None if verdict["inconclusive"] else float(
            np.maximum(verdict["factor_loss"], verdict["factor_rho"])),
         operator.le, verdict.pop("bound_factor")),
        ("rho_step_separated", _worst((v - u for u, v in zip(sep, sep[1:])),
                                      min), operator.ge, 0.0),
    ], csv={"rates": (columns, list(zip(*(diag[c] for c in columns))))},
        rates={"decades": diag["decades"], **verdict})


def frame_equivalence_check(model, ds, spec, theta0, records) -> dict:
    """Replay a `train_gd` run's accepted epochs in the relative frame
    and through a plain float64 loop side by side, up to FRAME_X_STOP,
    the window where the two must agree, on one bound evaluator."""
    evaluator = Evaluator(model, ds, spec)
    theta_rel = theta_dir = theta0
    max_rel = 0.0
    epochs = 0
    x_reached = None
    for rec in records:
        ev = evaluate_point(evaluator, theta_rel)
        if ev.x >= FRAME_X_STOP or rec["flagged"]:
            break
        theta_rel = gd_step(ev, rec["alpha"])
        theta_dir = gd_step_direct(evaluator, theta_dir, rec["alpha"])
        rel = (np.linalg.norm(theta_rel - theta_dir)
               / np.linalg.norm(theta_dir))
        max_rel = max(max_rel, float(rel))
        epochs += 1
        x_reached = rec["log_inv_loss"]
    return {"max_rel": max_rel, "epochs": epochs, "x_reached": x_reached}


def _scenario_deep_loss(cfg: RunConfig, seed: int) -> dict:
    res, b, failures = _drive(cfg, seed)
    records = res["records"]
    final_log10 = min(
        (r["log10_loss"] for r in records if "log10_loss" in r),
        default=0.0)
    frame = None  # the plain float64 replay takes -1/+1 labels only
    if cfg.dataset.is_binary:
        frame = frame_equivalence_check(cfg.model, cfg.dataset, cfg.loss,
                                        _theta0(cfg, seed), records)
    else:
        failures.append("no frame check: the labels are not -1/+1")
    non_finite = sum(isinstance(v, (int, float)) and not isinstance(v, bool)
                     and not math.isfinite(v)
                     for rec in records for v in rec.values())
    # a pre-target stall is the interesting diagnostic; racing far past
    # the target until the schedule abandons an epoch is not
    if res["flagged_epochs"] and final_log10 > DEEP_LOSS_LOG10:
        failures.append(f"scheduler stalled at epochs {res['flagged_epochs']}")
    alphas = [r["alpha"] for r in records]
    return _result(records, b, failures, [
        ("log10_loss", final_log10, operator.le, DEEP_LOSS_LOG10),
        ("non_finite_values", non_finite, operator.eq, 0),
        ("frame_max_rel", None if frame is None else frame["max_rel"],
         operator.le, 1e-8),
    ], final={
        "epochs": len(records), "log10_loss": final_log10,
        "x": res["ev"].x, "alpha_min": min(alphas, default=None),
        "alpha_max": max(alphas, default=None),
    }, flagged_epochs=res["flagged_epochs"], frame_equivalence=frame)


def _scenario_mexican_hat(cfg: RunConfig, seed: int) -> dict:
    records = run_hat(metric=cfg.options["metric"],
                      record_every=cfg.options["record_every"])
    hat = {"psi_max": _worst(abs(r["psi"]) for r in records),
           "r_final": records[-1]["r"],
           "phi_gain": records[-1]["phi"] - records[0]["phi"],
           "records": len(records)}
    return _result(records, None, [], [
        ("psi_max", hat["psi_max"], operator.le, 1e-3),
        ("r_final", hat["r_final"], operator.gt, 0.99),
        ("phi_gain", hat["phi_gain"], operator.ge,
         cfg.options["phi_gain_min"]),
        ("clamped", records[-1]["clamped"], operator.eq, False),
    ], csv={"hat": (("t", "r", "phi", "psi", "rho"),
                    [(r["t"], r["r"], r["phi"], r["psi"], r["rho"])
                     for r in records])}, hat=hat)


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
    model, ds, spec = cfg.model, cfg.dataset, cfg.loss
    report = {"config_sha256": config_digest(cfg.raw), "seed": seed,
              "loss": spec.name, "kkt": []}
    if not ds.is_binary:
        report["failures"] = ["no KKT certificate: the labels are not -1/+1"]
        return report
    b1 = sphere_sups(model, ds.X)[1]
    anchor = None  # as run_flow's log_tilde0
    failures = []
    targets = [cfg.options["target_log_inv_loss"] * f
               for f in KKT_FRACTIONS]
    for state, _ in flow_states(model, _theta0(cfg, seed), ds, spec,
                                step_tol=cfg.options["step_tol"]):
        if anchor is None and is_separated(state.ev, spec):
            [lt] = log_tilde_margin([state.ev.x], [state.ev.rho], spec,
                                    model.order_L)
            anchor = lt if math.isfinite(lt) else None
        while targets and state.ev.x >= targets[0]:
            x_target = targets.pop(0)
            if not is_separated(state.ev, spec):
                failures.append(f"checkpoint x >= {x_target}: not separated "
                                f"at x = {state.ev.x}")
            else:
                cert = build_certificate(model, state.ev, ds, spec,
                                         log_tilde_t0=anchor, b1=b1)
                cert["x"] = cert.pop("log_inv_loss")
                report["kkt"].append(cert)
        if not targets:
            break
    else:
        failures.append(f"flow stopped at x = {state.ev.x} before "
                        f"checkpoint x >= {targets[0]}")
    if failures:
        report["failures"] = failures
    return report
