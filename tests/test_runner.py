"""Scenario harness: configs, sinks, determinism, and the CLI verbs."""

import ast
import importlib.util
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
import yaml

from marginflow.cli import main as cli_main
from marginflow import gradflow, runner
from marginflow.runner import (SCENARIOS, SETUPS, RunConfig, _theta0,
                               _worst, config_digest, emit_plot_data,
                               load_config, run_scenario, write_csv,
                               write_jsonl)

from oracles import readme_flow_config

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

FLOW_RAW = {
    "scenario": "flow_margin", "loss": "exp",
    "model": {"family": "relu_mlp", "input_dim": 2, "widths": [4]},
    "target_log_inv_loss": 8.0, "step_tol": 3e-3, "record_every": 10,
    "seed": 4,
}


# ------------------------------------------------------------- config

def test_config_round_trip_yaml_and_json(tmp_path):
    yml = tmp_path / "run.yaml"
    yml.write_text("scenario: mexican_hat\nseeds: [1, 2]\nrecord_every: 5\n")
    cfg = load_config(yml)
    assert cfg.scenario == "mexican_hat"
    assert cfg.seeds == (1, 2)
    assert cfg.options["record_every"] == 5
    jsn = tmp_path / "run.json"
    jsn.write_text(json.dumps({"scenario": "mexican_hat", "seed": 3}))
    assert load_config(jsn).seeds == (3,)


def test_config_rejects_unknown_names(tmp_path):
    with pytest.raises(ValueError, match="unknown scenario"):
        RunConfig.from_dict({"scenario": "warp_drive"})
    with pytest.raises(ValueError, match="unknown optimizer"):
        RunConfig.from_dict({"scenario": "rates", "optimizer": "adam"})
    # list values name their key, not an unhashable-type TypeError
    with pytest.raises(ValueError, match="unknown scenario"):
        RunConfig.from_dict({"scenario": ["flow_margin"]})
    with pytest.raises(ValueError, match="unknown optimizer"):
        RunConfig.from_dict({"scenario": "flow_margin", "optimizer": ["flow"]})
    p = tmp_path / "list.yaml"
    p.write_text("- a\n- b\n")
    with pytest.raises(ValueError, match="must be a mapping"):
        load_config(p)


@pytest.mark.parametrize("key,value", [
    ("record_every", 0), ("record_every", -3), ("record_every", 2.7),
    ("record_every", True), ("step_tol", 0.0), ("step_tol", -1e-3),
    ("step_tol", float("inf")), ("step_tol", float("nan")),
    ("step_tol", "0.002"), ("target_log_inv_loss", float("nan")),
    ("target_log_inv_loss", float("inf")), ("target_log_inv_loss", "nan"),
    ("alpha0", 0.0), ("alpha0", -0.1), ("alpha0", float("nan")),
    ("epochs", 10.9), ("epochs", 0), ("epochs", "20"), ("seeds", [0.7]),
    ("seeds", []), ("seeds", 3), ("seed", 0.7)])
def test_config_rejects_out_of_range_numbers(key, value):
    # before, record_every 0 raised ZeroDivisionError mid-run, step_tol 0
    # took no step and exited 0, and a negative step_tol ended in FlowAbort;
    # epochs 10.9 ran 10 epochs, seeds [0.7] ran seed 0, and a NaN target
    # ran the flow to its step cap. alpha0 and epochs are descent keys.
    scenario = "gd_margin" if key in ("alpha0", "epochs") else "flow_margin"
    with pytest.raises(ValueError, match=key):
        RunConfig.from_dict({"scenario": scenario, key: value})


@pytest.mark.parametrize("theta0", [[0.1], "abc"], ids=["short", "string"])
def test_cli_rejects_bad_theta0_before_writing(tmp_path, theta0):
    # before, [0.1] failed in numpy's reshape to (2, 6) and "abc" in float
    # conversion, both after the output directory was made, and neither
    # error named theta0
    p = tmp_path / "bad.yaml"
    p.write_text(json.dumps({"scenario": "flow_margin",
                             "options": {"theta0": theta0}}))
    with pytest.raises(ValueError, match="theta0"):
        cli_main(["run", "--config", str(p), "--out", str(tmp_path / "o")])
    assert not (tmp_path / "o").exists()


def test_config_checks_theta0_against_the_model():
    net = {"family": "relu_mlp", "input_dim": 2, "widths": [4]}  # 12
    for theta0 in ([0.1] * 11 + [math.nan], [0.1] * 11 + [-math.inf],
                   [0.1] * 11 + ["0.1"], [True] * 12, [[0.1] * 12],
                   (0.1,) * 12, 0.1, [0.1] * 18, [0.1] * 13):
        with pytest.raises(ValueError, match="theta0 must be a list of 12"):
            RunConfig.from_dict({"scenario": "flow_margin", "model": net,
                                 "options": {"theta0": theta0}})
    # ints stand for floats; the default model takes 18 parameters
    cfg = RunConfig.from_dict({"scenario": "flow_margin", "model": net,
                               "options": {"theta0": [1] * 12}})
    assert _theta0(cfg, 0).tolist() == [1.0] * 12
    RunConfig.from_dict({"scenario": "gd_margin",
                         "options": {"theta0": [0.1] * 18}})


def _emit_outputs():
    spec = importlib.util.spec_from_file_location(
        "emit_outputs", ROOT / "scripts" / "emit_outputs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _shipped_configs() -> list[dict]:
    """Every run config the repo ships: the README example, the emit
    corpus (less its entries that are rejected on purpose and its
    `validate-loss` entry, which names losses and no run) and the
    benchmark jobs at seed 0."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        from workloads import WORKLOADS, workload_jobs
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    shipped = [readme_flow_config()]
    shipped += [cfg for label, (verb, cfg) in _emit_outputs().CORPUS.items()
                if not label.startswith("rejected_")
                and verb != "validate-loss"]
    shipped += [job.config for name in WORKLOADS
                for job in workload_jobs(name, 0)]
    return shipped


def test_shipped_configs_load_and_unread_keys_are_rejected(tmp_path):
    for raw in _shipped_configs():
        RunConfig.from_dict(raw)
    # a key that no run reads is rejected at load, before any file is
    # written, and the message names it
    for key, raw in [
            ("target_log_inv_los", {"scenario": "flow_margin",
                                    "target_log_inv_los": 3.0}),
            ("n_spere", {"scenario": "gd_margin",
                         "options": {"n_spere": 10}}),
            ("s5_guard", {"scenario": "flow_margin",
                          "options": {"s5_guard": False}}),
            ("s5_guard", {"scenario": "rates", "options": {"s5_guard": True}}),
            # a top-level key that the run does not read
            ("alpha0", {"scenario": "flow_margin", "alpha0": 0.5}),
            ("epochs", {"scenario": "flow_margin", "epochs": 20}),
            ("step_tol", {"scenario": "gd_margin", "step_tol": 0.002}),
            ("target_log_inv_loss", {"scenario": "gd_margin",
                                     "target_log_inv_loss": 5.0}),
            ("record_every", {"scenario": "gd_margin", "record_every": 10}),
            ("model", {"scenario": "mexican_hat",
                       "model": {"family": "linear", "input_dim": 2}}),
            ("loss", {"scenario": "mexican_hat", "loss": "exp"}),
            ("dataset", {"scenario": "mexican_hat",
                         "dataset": {"kind": "xor", "n": 8}}),
            ("seed", {"scenario": "flow_margin", "seed": 1, "seeds": [0]}),
            ("gd_loss_based", {"scenario": "flow_margin",
                               "optimizer": "gd_loss_based"}),
            ("gd_const", {"scenario": "deep_loss_50",
                          "optimizer": "gd_const"}),
            # a value must have its default's type, not be cast to it
            ("s5_guard", {"scenario": "gd_margin",
                          "options": {"s5_guard": "false"}}),
            ("n_sphere", {"scenario": "gd_margin",
                          "options": {"n_sphere": 2500.9}}),
            ("phi_gain_min", {"scenario": "mexican_hat",
                              "options": {"phi_gain_min": True}})]:
        p = tmp_path / "bad.yaml"
        p.write_text(json.dumps(raw))
        with pytest.raises(ValueError, match=key):
            cli_main(["run", "--config", str(p), "--out", str(tmp_path / "o")])
        assert not (tmp_path / "o").exists()
    # a verb of one scenario takes only that scenario's config: the
    # options of another scenario's run are not the ones it reads
    p.write_text(json.dumps({"scenario": "mexican_hat"}))
    for verb in ("kkt-report", "rates"):
        with pytest.raises(SystemExit, match=f"{verb} expects"):
            cli_main([verb, "--config", str(p)])
    # the model's outputs must match the labels, checked at load: before,
    # these escaped as a numpy broadcast error and an IndexError from
    # label_masks
    net = {"family": "relu_mlp", "input_dim": 2, "widths": [6]}
    three_class = {"kind": "inline", "rows": [[2.0, 0.0, 0], [-1.0, 1.7, 1],
                                               [-1.0, -1.7, 2]]}
    for model, dataset, match in [
            ({**net, "num_outputs": 2}, None, "num_outputs = 2.*need 1"),
            (net, three_class, "num_outputs = 1.*need 3")]:
        with pytest.raises(ValueError, match=match):
            RunConfig.from_dict({"scenario": "flow_margin", "model": model,
                                 "dataset": dataset})
    # an int stands for a float option; a multi-class model may have more
    # outputs than the labels present
    cfg = RunConfig.from_dict({"scenario": "mexican_hat",
                               "options": {"phi_gain_min": 1}})
    assert cfg.options["phi_gain_min"] == 1.0
    cfg = RunConfig.from_dict({"scenario": "flow_margin",
                               "model": {**net, "num_outputs": 4},
                               "dataset": three_class})
    model, theta0 = cfg.model, _theta0(cfg, 0)
    assert model.num_outputs == 4 and theta0.shape == (model.param_count,)


_README_MODEL = {"family": "relu_mlp", "input_dim": 2, "widths": [6]}


@pytest.mark.parametrize("section,key,raw", [
    # the IDX keys are images_path and labels_path
    ("dataset", "images", {"dataset": {
        "kind": "idx", "images": "PATH", "labels": "PATH",
        "classes": [3, 8]}}),
    ("dataset", "bogus", {"dataset": {"kind": "two_gaussians", "n": 12,
                                      "bogus": 1}}),
    ("dataset", "kind 'nope'", {"dataset": {"kind": "nope"}}),
    ("model", "bogus", {"model": {**_README_MODEL, "bogus": 1}}),
    ("model", "widths", {"model": {**_README_MODEL, "widths": 6}}),
    ("model", "input_dim", {"model": {**_README_MODEL, "input_dim": 3}}),
    ("loss", "nope", {"loss": "nope"}),
    # keys the family does not read
    ("model", "widths", {"model": {"family": "linear", "input_dim": 2,
                                   "widths": [6]}}),
    ("model", "alpha", {"model": {**_README_MODEL, "alpha": 0.2}}),
    # a key without a default in the builder's signature must be given
    ("model", "widths' is required", {"model": {"family": "relu_mlp",
                                                "input_dim": 2}}),
    # before, a zero width ran a model with no parameters and reported no
    # failure, and 2.5 raised a TypeError mid-run
    ("model", "widths", {"model": {**_README_MODEL, "widths": [0]}}),
    ("model", "widths", {"model": {**_README_MODEL, "widths": [2.5]}}),
], ids=["idx_readme_keys", "dataset_key", "dataset_kind", "model_key",
        "widths_int", "input_dim", "loss", "widths_on_linear",
        "alpha_on_relu", "widths_missing", "width_zero", "width_float"])
def test_bad_sections_are_rejected_at_load(tmp_path, section, key, raw):
    # before, the keys the family does not read were dropped silently,
    # and the rest raised mid-run, from _setup or the first forward,
    # after the output directory was made
    p = tmp_path / "bad.yaml"
    p.write_text(json.dumps({"scenario": "flow_margin", **raw}))
    with pytest.raises(ValueError, match=f"{section} .*{key}"):
        cli_main(["run", "--config", str(p), "--out", str(tmp_path / "o")])
    assert not (tmp_path / "o").exists()


def test_every_option_is_set_by_a_shipped_config():
    # a run key or option that no shipped config sets is a constant: the
    # shipped configs and the benchmark self-tests' `options` literals
    # (read as source, not run) must between them set every one
    keys = set().union(*(raw.keys() | raw.get("options", {}).keys()
                         for raw in _shipped_configs()))
    source = (ROOT / "perfbench" / "tests" / "test_bench.py").read_text(
        encoding="utf-8")
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Dict):
            keys |= {key.value for k, v in zip(node.keys, node.values)
                     if isinstance(k, ast.Constant) and k.value == "options"
                     and isinstance(v, ast.Dict) for key in v.keys}
    declared = {key for *_, runs in SETUPS.values() for run in runs.values()
                for key in [*run, *run["options"]]}
    assert sorted(declared - keys) == []


def _have(raw: dict) -> list[str]:
    """The keys named by the rejection of raw's unknown key."""
    with pytest.raises(ValueError, match="unknown") as err:
        RunConfig.from_dict(raw)
    return ast.literal_eval(str(err.value).split("; have ")[1])


def test_accepted_keys_per_run():
    # each (scenario, optimizer): the top-level keys and the options a
    # config may set, which are exactly the keys the run reads
    shared = ["optimizer", "options", "out_dir", "scenario", "seed", "seeds"]
    data = ["dataset", "loss", "model"]
    flow = ["record_every", "step_tol", "target_log_inv_loss"]
    gd = ["alpha0", "epochs"]
    samples = ["n_curvature", "n_sphere", "theta0"]
    flow_run = (sorted(shared + data + flow), samples)
    gd_run = (sorted(shared + data + gd), sorted(samples + ["s5_guard"]))
    accepted = {(scenario, optimizer): (
        _have({"scenario": scenario, "optimizer": optimizer, "?": 0}),
        _have({"scenario": scenario, "optimizer": optimizer,
               "options": {"?": 0}}))
        for scenario, (*_, runs) in SETUPS.items() for optimizer in runs}
    assert accepted == {
        ("flow_margin", "flow"): flow_run,
        ("gd_margin", "gd_loss_based"): gd_run,
        ("gd_margin", "gd_const"): gd_run,
        ("linear_logistic_2d", "flow"): flow_run,
        ("rates", "flow"): flow_run,
        ("rates", "gd_loss_based"): gd_run,
        ("rates", "gd_const"): gd_run,
        ("deep_loss_50", "gd_loss_based"): gd_run,
        ("mexican_hat", "flow"): (sorted(shared + ["record_every"]),
                                  ["metric", "phi_gain_min"]),
    }


def test_only_the_verbs_that_write_files_take_out(tmp_path, capsys):
    # kkt-report and rates print their reports and write nothing
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"scenario": "rates"}))
    for verb in ("kkt-report", "rates"):
        with pytest.raises(SystemExit) as err:
            cli_main([verb, "--config", str(p), "--out", str(tmp_path)])
        assert err.value.code == 2
        assert "unrecognized arguments: --out" in capsys.readouterr().err


def test_config_digest_is_order_insensitive():
    a = config_digest({"x": 1, "y": [2, 3]})
    b = config_digest({"y": [2, 3], "x": 1})
    assert a == b and len(a) == 64
    assert config_digest({"x": 2, "y": [2, 3]}) != a


# -------------------------------------------------------------- sinks

def test_write_jsonl_header_then_records(tmp_path):
    cfg = RunConfig.from_dict(dict(FLOW_RAW))
    p = tmp_path / "t.jsonl"
    write_jsonl(p, cfg, 4, [{"step": 0, "v": np.float64(1.5)},
                            {"step": 1, "v": math.inf}])
    lines = p.read_text().splitlines()
    header = json.loads(lines[0])
    assert header["config"] == FLOW_RAW
    assert header["config_sha256"] == config_digest(FLOW_RAW)
    assert header["seed"] == 4 and "timestamp" in header
    assert json.loads(lines[1]) == {"step": 0, "v": 1.5}
    assert lines[2] == '{"step": 1, "v": Infinity}'


def test_write_csv_embeds_config_and_blanks_none(tmp_path):
    cfg = RunConfig.from_dict(dict(FLOW_RAW))
    p = tmp_path / "t.csv"
    write_csv(p, cfg, ("a", "b"), [(1, 0.5), (2, None)])
    lines = p.read_text().splitlines()
    assert lines[0].startswith("# config_sha256=" + config_digest(FLOW_RAW))
    assert lines[1] == "a,b"
    assert lines[2] == "1,0.5" and lines[3] == "2,"


def test_emit_plot_data_empty_trajectory_writes_headers(tmp_path):
    cfg = RunConfig.from_dict(dict(FLOW_RAW))
    paths = emit_plot_data([], cfg, tmp_path, "empty")
    assert set(paths) == {"loss", "margins", "alpha"}
    for p in paths.values():
        lines = p.read_text().splitlines()
        assert len(lines) == 2 and lines[0].startswith("#")


def test_emit_plot_data_series(tmp_path):
    cfg = RunConfig.from_dict(dict(FLOW_RAW))
    traj = [
        {"epoch": 0, "log_inv_loss": math.log(10.0), "alpha": 0.1},
        {"epoch": 1, "log_inv_loss": 2 * math.log(10.0), "alpha": 0.2,
         "bar_gamma": 0.5, "log_tilde": math.log(0.4),
         "log_hat": math.log(0.3)},
    ]
    paths = emit_plot_data(traj, cfg, tmp_path, "s")
    loss = paths["loss"].read_text().splitlines()
    assert loss[2].startswith("0,") and abs(float(loss[2].split(",")[1])
                                            - 1.0) < 1e-12
    margins = paths["margins"].read_text().splitlines()
    assert margins[1] == "epoch,bar_gamma,tilde_gamma,hat_gamma"
    row = margins[2].split(",")
    assert row[0] == "1" and abs(float(row[2]) - 0.4) < 1e-15
    alpha = paths["alpha"].read_text().splitlines()
    assert [l.split(",")[1] for l in alpha[2:]] == ["0.1", "0.2"]


# -------------------------------------------------------- determinism

def test_rerun_identical_up_to_timestamp(tmp_path):
    cfg = RunConfig.from_dict(dict(FLOW_RAW))
    a, b = tmp_path / "a", tmp_path / "b"
    run_scenario(cfg, out_dir=a)
    run_scenario(cfg, out_dir=b)
    names = sorted(p.name for p in a.iterdir())
    assert names == sorted(p.name for p in b.iterdir())
    for name in names:
        ta = (a / name).read_text()
        tb = (b / name).read_text()
        if name.endswith(".jsonl"):
            la, lb = ta.splitlines(), tb.splitlines()
            ha, hb = json.loads(la[0]), json.loads(lb[0])
            ha.pop("timestamp")
            hb.pop("timestamp")
            assert ha == hb
            assert la[1:] == lb[1:]
        else:
            assert ta == tb


# ---------------------------------------------------------- scenarios

def test_flow_margin_scenario_outputs(tmp_path):
    cfg = RunConfig.from_dict(dict(FLOW_RAW))
    out = run_scenario(cfg, out_dir=tmp_path)
    assert out.ok, out.failures
    s = out.summaries[0]
    assert s["loss_validation"]["ok"]
    assert s["b_constants"]["b0"] > 0
    assert {k: c["bound"] for k, c in s["checks"].items()} == {
        "d_log_tilde": math.log1p(-1e-6), "growth_within_tol_frac": 0.95,
        "nu_slack": -1e-9, "margin_slack": -1e-9, "upper_slack": -1e-6,
        "sandwich_excess": 0.0}
    assert all(c["ok"] for c in s["checks"].values())
    assert s["checks"]["growth_within_tol_frac"]["worst"] >= 0.95
    assert (tmp_path / "flow_margin-seed4.jsonl").exists()
    recs = [json.loads(l) for l in
            (tmp_path / "flow_margin-seed4.jsonl").read_text().splitlines()]
    assert recs[0]["seed"] == 4
    assert recs[-1]["log_inv_loss"] >= 8.0


def test_gd_margin_scenario_monotone_hat(tmp_path):
    cfg = RunConfig.from_dict({
        "scenario": "gd_margin", "loss": "exp",
        "optimizer": "gd_loss_based",
        "model": {"family": "relu_mlp", "input_dim": 2, "widths": [4]},
        "alpha0": 0.05, "epochs": 120, "seed": 1,
        "options": {"n_sphere": 500, "n_curvature": 200}})
    out = run_scenario(cfg, out_dir=tmp_path)
    assert out.ok, out.failures
    assert out.summaries[0]["margin_series_len"] > 50
    assert {k: c["bound"] for k, c in out.summaries[0]["checks"].items()} \
        == {"s5_log_ratio": 1e-12, "hat_step": -1e-10,
            "ordering_excess": 0.0, "rho_identity": 1e-9,
            "euler_gap": 1e-12, "p2_lower": -1e-9, "p2_upper": -1e-9,
            "p3_slack": -1e-9, "p4_slack": -1e-10, "grad_bound": -1e-9}
    # the ordering's slack sits inside its terms, so its verdict is that
    # of hat <= tilde + 1e-12 also where hat - tilde exceeds 1e-12
    hat = 1.0 + 1e-12
    assert hat - 1.0 > 1e-12 and _worst([hat - (1.0 + 1e-12)]) == 0.0


def test_linear_logistic_scenario_reports_svm_gap(tmp_path):
    cfg = RunConfig.from_dict({
        "scenario": "linear_logistic_2d", "loss": "logistic",
        "target_log_inv_loss": 60.0, "step_tol": 3e-3, "record_every": 25,
        "seed": 0})
    out = run_scenario(cfg, out_dir=tmp_path)
    assert out.ok, out.failures
    s = out.summaries[0]
    assert s["svm_angle_gap"] <= 0.02
    assert s["checks"] == {"svm_angle_gap": {
        "worst": s["svm_angle_gap"], "bound": 0.02, "ok": True}}
    assert s["kkt"]["delta"] <= s["kkt"]["delta_bound"]
    assert s["kkt"]["epsilon"] < 0.1


def test_mexican_hat_scenario_csv_columns(tmp_path):
    cfg = RunConfig.from_dict({"scenario": "mexican_hat", "seed": 0})
    out = run_scenario(cfg, out_dir=tmp_path)
    assert out.ok, out.failures
    csv = (tmp_path / "mexican_hat-seed0-hat.csv").read_text().splitlines()
    assert csv[1] == "t,r,phi,psi,rho"
    assert len(csv) > 1000
    checks = out.summaries[0]["checks"]
    assert {k: c["bound"] for k, c in checks.items()} == {
        "psi_max": 1e-3, "r_final": 0.99, "phi_gain": 4 * math.pi,
        "clamped": False}
    assert checks["r_final"]["worst"] == out.summaries[0]["hat"]["r_final"]


def test_a_nan_anywhere_in_a_series_fails_its_row(tmp_path, monkeypatch):
    # Python's min and max return a NaN only when it comes first:
    # min([1.0, nan]) is 1.0, so each series gets one NaN in its middle
    def nan_inside(series):
        series.insert(len(series) // 2, math.nan)

    def patched(name, edit):
        real = getattr(runner, name)

        def run(*args, **kwargs):
            out = real(*args, **kwargs)
            edit(out)
            return out
        monkeypatch.setattr(runner, name, run)

    flow_keys = ("nu_slack", "margin_slack", "upper_slack")
    gd_keys = ("s5_log_ratio", "rho_identity", "euler_gap", "p2_lower",
               "p2_upper", "p3_slack", "p4_slack", "grad_bound")
    patched("run_flow", lambda out: [nan_inside(out["monitors"][k])
                                     for k in flow_keys])
    patched("train_gd", lambda out: [nan_inside(out["monitors"][k])
                                     for k in gd_keys])
    patched("run_hat", lambda recs: recs.insert(len(recs) // 2, {
        **recs[len(recs) // 2], "psi": math.nan}))
    runs = [(FLOW_RAW, flow_keys), ({
        "scenario": "gd_margin", "loss": "exp",
        "model": {"family": "relu_mlp", "input_dim": 2, "widths": [4]},
        "alpha0": 0.05, "epochs": 120, "seed": 1,
        "options": {"n_sphere": 500, "n_curvature": 200}}, gd_keys),
        ({"scenario": "mexican_hat", "seed": 0}, ("psi_max",))]
    for raw, keys in runs:
        out = run_scenario(RunConfig.from_dict(dict(raw)), out_dir=tmp_path)
        checks = out.summaries[0]["checks"]
        for key in keys:
            assert math.isnan(checks[key]["worst"]), key
            assert not checks[key]["ok"], key
        assert len(out.failures) == len(keys)
    # the first of equal terms, as min and max take it: a zero keeps its sign
    assert math.copysign(1.0, _worst([0.0, -0.0], min)) == 1.0
    assert math.copysign(1.0, _worst([-0.0, 0.0])) == -1.0
    assert _worst([], min) is None


def test_scenario_failure_is_reported_not_raised(tmp_path):
    # an unreachable angle gain forces its check to fail
    cfg = RunConfig.from_dict({
        "scenario": "mexican_hat", "seed": 0,
        "options": {"phi_gain_min": 1e9}})
    out = run_scenario(cfg, out_dir=tmp_path)
    assert not out.ok
    [failure] = out.failures
    assert failure.startswith("seed 0: phi_gain = ")
    assert failure.endswith(", not >= 1000000000.0")


def test_multi_seed_runs_write_separate_files(tmp_path):
    raw = dict(FLOW_RAW)
    raw.pop("seed")
    raw["seeds"] = [0, 1]
    raw["target_log_inv_loss"] = 5.0
    out = run_scenario(RunConfig.from_dict(raw), out_dir=tmp_path)
    assert len(out.summaries) == 2
    assert (tmp_path / "flow_margin-seed0.jsonl").exists()
    assert (tmp_path / "flow_margin-seed1.jsonl").exists()


def test_loss_based_alpha_spans_orders_of_magnitude(tmp_path):
    # a deliberately tiny alpha(0) exercises the scheduler's dynamic
    # range: the series climbs to its working scale across the run
    cfg = RunConfig.from_dict({
        "scenario": "deep_loss_50", "loss": "exp",
        "optimizer": "gd_loss_based", "alpha0": 1e-7, "epochs": 500,
        "seed": 0})
    out = run_scenario(cfg, out_dir=tmp_path)
    assert out.ok, out.failures
    csv = (tmp_path / "deep_loss_50-seed0-alpha.csv").read_text()
    alphas = [float(l.split(",")[1]) for l in csv.splitlines()[2:]]
    assert math.log10(max(alphas) / min(alphas)) >= 6.0


def test_gd_const_optimizer_monotone_loss(tmp_path):
    cfg = RunConfig.from_dict({
        "scenario": "gd_margin", "loss": "exp", "optimizer": "gd_const",
        "model": {"family": "linear", "input_dim": 2},
        "dataset": {"kind": "inline", "rows": [[2, 1, 1], [-1, 0.5, -1]]},
        "alpha0": 0.3, "epochs": 150, "seed": 0,
        "options": {"n_sphere": 500, "n_curvature": 200}})
    out = run_scenario(cfg, out_dir=tmp_path)
    assert out.ok, out.failures
    lines = (tmp_path / "gd_margin-seed0-loss.csv").read_text().splitlines()
    vals = [float(l.split(",")[1]) for l in lines[2:]]
    assert all(b >= a for a, b in zip(vals, vals[1:]))



def test_gd_step_that_overflows_is_a_rejected_trial(tmp_path):
    # unguarded loss-based GD on the README net grows alpha until a step
    # overflows the forward pass: a rejected trial, so the schedule
    # shrinks alpha, and the run ends with listed failures, not a raise
    cfg = RunConfig.from_dict({
        "scenario": "gd_margin", "loss": "exp", "alpha0": 0.1,
        "epochs": 3000, "seed": 0, "options": {"s5_guard": False}})
    out = run_scenario(cfg, out_dir=tmp_path)
    assert out.failures and out.summaries[0]["final"]["epochs"] <= 3000
    # every entry of theta is finite, and so is its norm, though
    # theta @ theta overflows (rho ~ 1.9e154)
    assert math.isfinite(out.summaries[0]["final"]["rho"])
    # at a constant alpha the overflowing step ends the run, named
    cfg = RunConfig.from_dict({
        "scenario": "gd_margin", "loss": "exp", "optimizer": "gd_const",
        "alpha0": 1e10, "epochs": 50, "seed": 0})
    out = run_scenario(cfg, out_dir=tmp_path)
    assert out.failures == ["seed 0: alpha = 1e+10 overflowed at epoch 14"]
    assert out.summaries[0]["final"]["epochs"] == 14

# ---------------------------------------------------------------- cli

def test_cli_run_exit_codes(tmp_path, capsys):
    p = tmp_path / "cfg.yaml"
    p.write_text(json.dumps(FLOW_RAW))
    rc = cli_main(["run", "--config", str(p), "--out", str(tmp_path / "o")])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["failures"] == []
    assert report["runs"] == 1

    bad = tmp_path / "bad.yaml"
    bad.write_text(json.dumps({
        "scenario": "mexican_hat", "seed": 0,
        "options": {"phi_gain_min": 1e9}}))
    rc = cli_main(["run", "--config", str(bad), "--out", str(tmp_path / "b")])
    assert rc == 1


def test_cli_run_fails_a_flow_short_of_its_target(tmp_path, capsys,
                                                  monkeypatch):
    # this flow takes more steps than the cap to reach x = 8
    monkeypatch.setattr(gradflow, "MAX_STEPS", 2_000)
    p = tmp_path / "cfg.yaml"
    p.write_text(json.dumps(FLOW_RAW))
    rc = cli_main(["run", "--config", str(p), "--out", str(tmp_path / "o")])
    assert rc == 1
    [failure] = json.loads(capsys.readouterr().out)["failures"]
    assert failure.startswith("seed 4: flow stopped at x = ")
    assert failure.endswith(" after 2000 steps, short of its target x >= 8.0")


def test_cli_run_reports_underflowing_margin_anchor(tmp_path, capsys):
    # logistic GD at this seed separates at x0 = 0.376 where phi(x0) is
    # about -5638, so gamma_hat0 = e^{phi}/rho^L underflows to 0.0 and
    # C_eta cannot be formed; the run ends with a named failure
    p = tmp_path / "gd.yaml"
    p.write_text(json.dumps({
        "scenario": "gd_margin", "loss": "logistic",
        "optimizer": "gd_loss_based", "alpha0": 0.05, "epochs": 400,
        "seeds": [13]}))
    rc = cli_main(["run", "--config", str(p), "--out", str(tmp_path / "o")])
    assert rc == 1
    report = json.loads(capsys.readouterr().out)
    [failure] = report["failures"]
    assert "log gamma_hat0 = -5" in failure and "x0 = 0.376" in failure
    summary = json.loads(
        (tmp_path / "o" / "gd_margin-seed13.summary.json").read_text())
    assert summary["failures"] == [failure.removeprefix("seed 13: ")]
    # the run stopped at the separating epoch instead of running on
    assert summary["final"]["epochs"] < 400
    assert summary["final"]["x"] > 0.3665
    # it reports the B-constants it drew before it started
    assert summary["b_constants"]["n_sphere"] == 2_000


def test_cli_seed_override(tmp_path, capsys):
    raw = dict(FLOW_RAW)
    raw.pop("seed")
    raw["seeds"] = [0, 1, 2]
    raw["target_log_inv_loss"] = 5.0
    p = tmp_path / "cfg.yaml"
    p.write_text(json.dumps(raw))
    rc = cli_main(["run", "--config", str(p), "--seed", "7",
                   "--out", str(tmp_path / "o")])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["runs"] == 1
    assert (tmp_path / "o" / "flow_margin-seed7.jsonl").exists()


@pytest.mark.parametrize("config", [
    readme_flow_config(),
    {"scenario": "gd_margin", "loss": "logistic", "alpha0": 0.05,
     "epochs": 30}], ids=["readme_flow", "gd_margin_logistic"])
def test_cli_flow_run_loads_no_scipy(tmp_path, config):
    # importing scipy is most of a process start, and no run needs it:
    # the guarded GD run separates, so it builds its margin curve
    cfg = tmp_path / "run.yaml"
    cfg.write_text(json.dumps(config))
    script = ("import json, sys\n"
              "from marginflow import cli\n"
              "rc = cli.main(sys.argv[1:])\n"
              "print(json.dumps(sorted(m for m in sys.modules\n"
              "                        if m.startswith('scipy'))))\n"
              "sys.exit(rc)\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-c", script, "run", "--config", str(cfg),
         "--seed", "0", "--out", str(tmp_path / "out")],
        capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == []


def test_cli_validate_loss(capsys):
    assert cli_main(["validate-loss", "--loss", "exp", "logistic"]) == 0
    reports = json.loads(capsys.readouterr().out)
    assert [r["ok"] for r in reports] == [True, True]
    names = {c["clause"] for r in reports for c in r["clauses"]}
    assert "g_roundtrip" in names and "fq_diverges" in names


def test_cli_kkt_report(tmp_path, capsys):
    p = tmp_path / "cfg.yaml"
    p.write_text(json.dumps({
        "scenario": "linear_logistic_2d", "loss": "logistic",
        "target_log_inv_loss": 24.0, "step_tol": 3e-3, "seed": 0,
        "options": {"theta0": [0.2, -0.1]}}))
    assert cli_main(["kkt-report", "--config", str(p)]) == 0
    report = json.loads(capsys.readouterr().out)
    eps = [c["epsilon"] for c in report["kkt"]]
    assert len(eps) == 4
    assert eps == sorted(eps, reverse=True)  # certificates tighten


def test_cli_kkt_report_stationary_start_exits(tmp_path, capsys):
    # a ReLU net at theta = 0 has zero gradient: the flow cannot move,
    # so the report ends at once with no checkpoint and a failing exit
    p = tmp_path / "cfg.yaml"
    p.write_text(json.dumps({
        "scenario": "linear_logistic_2d",
        "model": {"family": "relu_mlp", "input_dim": 2, "widths": [4]},
        "options": {"theta0": [0.0] * 12}}))
    t0 = time.perf_counter()
    assert cli_main(["kkt-report", "--config", str(p)]) == 1
    assert time.perf_counter() - t0 < 10.0
    assert json.loads(capsys.readouterr().out)["kkt"] == []


# guarded descent on two points: conclusive rates in 600 epochs
RATES_GD = {
    "scenario": "rates", "loss": "exp", "optimizer": "gd_loss_based",
    "model": {"family": "linear", "input_dim": 2},
    "dataset": {"kind": "inline", "rows": [[2, 1, 1], [-1, 0.5, -1]]},
    "alpha0": 1.0, "epochs": 600, "seed": 0,
    "options": {"s5_guard": True, "theta0": [0.3, 0.05]}}


def test_cli_rates(tmp_path, capsys):
    p = tmp_path / "cfg.yaml"
    p.write_text(json.dumps(RATES_GD))
    assert cli_main(["rates", "--config", str(p)]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["rates"]["passed"]
    assert {k: c["bound"] for k, c in summary["checks"].items()} == {
        "decades": 3.0, "ratio_factor": 10.0, "rho_step_separated": 0.0}
    assert summary["checks"]["decades"]["worst"] == summary["rates"]["decades"]


def test_rates_csv_cells_are_plain_numbers(tmp_path):
    # a numpy float's own repr reads np.float64(1.1037457598376217)
    # under numpy 2, which no CSV reader parses
    run_scenario(RunConfig.from_dict(RATES_GD), out_dir=tmp_path)
    lines = (tmp_path / "rates-seed0-rates.csv").read_text().splitlines()
    cells = [cell for row in lines[2:] for cell in row.split(",")]
    assert len(cells) > 100
    for cell in cells:
        float(cell)  # a ValueError on np.float64(...)


def test_cli_hat_default_config(tmp_path, capsys):
    assert cli_main(["hat", "--out", str(tmp_path)]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["hat"]["r_final"] > 0.99


# ------------------------------------------ named failures, not raises

def test_flow_margin_trains_quadratic_mlp_on_xor(tmp_path):
    # the square-activation family end to end (order L = 3): separates
    # the jittered XOR set and reaches x = 10 (in 2,825 steps on x86-64
    # with numpy 2.4; the step count may move with the rounding of
    # another CPU or BLAS, so only its order is checked)
    cfg = RunConfig.from_dict({
        "scenario": "flow_margin", "loss": "exp",
        "model": {"family": "quadratic_mlp", "input_dim": 2, "widths": [4]},
        "dataset": {"kind": "xor", "n": 8, "jitter": 0.1, "seed": 0},
        "step_tol": 0.003, "target_log_inv_loss": 10.0, "seeds": [0]})
    out = run_scenario(cfg, out_dir=tmp_path)
    assert out.ok, out.failures
    final = out.summaries[0]["final"]
    assert final["x"] >= 10.0 and final["q_min"] > 0.0
    assert final["steps"] < 5000
    assert out.summaries[0]["checks"]["growth_within_tol_frac"]["worst"] \
        == 1.0


def test_flow_3class_corpus_entry_passes(tmp_path):
    # multi-class flow: with V the Euler term of the soft-min margins the
    # growth identity holds on every step and the nu bound has slack
    cfg = RunConfig.from_dict(_emit_outputs().CORPUS["flow_3class"][1])
    out = run_scenario(cfg, out_dir=tmp_path)
    assert out.ok, out.failures
    checks = out.summaries[0]["checks"]
    assert checks["growth_within_tol_frac"]["worst"] == 1.0
    assert checks["nu_slack"]["worst"] > 0.0


def test_gd_3class_corpus_entry_names_missing_margin_state(tmp_path):
    # multi-class descent has no B-constants and so no (S5) margin state:
    # it runs its epochs unguarded and fails by name instead of raising
    cfg = RunConfig.from_dict(_emit_outputs().CORPUS["gd_3class"][1])
    out = run_scenario(cfg, out_dir=tmp_path)
    assert out.failures == ["seed 0: no (S5) margin state: the "
                            "B-constants need binary labels"]
    assert out.summaries[0]["b_constants"] is None
    assert out.summaries[0]["final"]["epochs"] == cfg.options["epochs"]


def test_gd_alpha_past_1e300_corpus_entry_names_the_stall(tmp_path, capsys):
    # unguarded exp descent on two points grows alpha past 1e300; the
    # step is taken as any other, and the run ends in a named stall
    # where a range check on alpha once raised out of the CLI
    code, report = _cli_json(tmp_path, capsys, "run", _emit_outputs().CORPUS[
        "gd_alpha_past_1e300"][1])
    assert code == 1
    assert report["failures"][0] == \
        "seed 0: scheduler stalled at epochs [5126]"


def test_flow_tiny_start_corpus_entry_names_the_abort(tmp_path, capsys):
    # the README net from 1e-140 per entry: 60 halvings cannot shrink the
    # first proposal into range, and the FlowAbort that once raised out
    # of the CLI is a named failure; the run's files are still written.
    # YAML as the corpus writes it: PyYAML reads json's 1e-140 as a string
    p = tmp_path / "cfg.yaml"
    p.write_text(yaml.safe_dump(_emit_outputs().CORPUS["flow_tiny_start"][1]))
    code = cli_main(["run", "--config", str(p), "--out", str(tmp_path / "o")])
    report = json.loads(capsys.readouterr().out)
    assert code == 1
    failure = ("flow aborted: step rejected 60 times at t=0.0, "
               "x=-2.4849066497880004, last dx=0.6931471805599454")
    assert report["failures"] == [f"seed 0: {failure}"]
    assert [Path(f).name for f in report["files"][:2]] == [
        "flow_margin-seed0.jsonl", "flow_margin-seed0.summary.json"]
    summary = json.loads(Path(report["files"][1]).read_text())
    assert summary["failures"] == [failure]
    assert summary["final"]["steps"] == 0


def test_deep_loss_3class_corpus_entry_names_missing_frame_check(
        tmp_path, capsys):
    # class labels: the plain float64 replay takes -1/+1 labels only, so
    # the frame check is skipped by name instead of raising
    code, report = _cli_json(tmp_path, capsys, "run", _emit_outputs().CORPUS[
        "deep_loss_3class"][1])
    assert code == 1
    assert report["failures"] == [
        "seed 0: no (S5) margin state: the B-constants need binary labels",
        "seed 0: no frame check: the labels are not -1/+1"]
    summary = json.loads(Path(report["files"][1]).read_text())
    assert summary["frame_equivalence"] is None
    assert summary["checks"]["frame_max_rel"] == {
        "worst": None, "bound": 1e-8, "ok": True}


def test_rates_on_gd_names_scheduler_stall():
    # a dead-ReLU start (||G|| ~ 7.6e-15): the scheduler grows alpha to
    # ~3e10 and train_gd flags epoch 222, which the verdict leaves out
    cfg = RunConfig.from_dict({
        "scenario": "rates", "loss": "exp", "optimizer": "gd_loss_based",
        "alpha0": 0.1, "epochs": 300, "seed": 0})
    assert SCENARIOS["rates"](cfg, 0)["failures"] == [
        "scheduler stalled at epochs [222]",
        "decades = 0.0, not >= 3.0"]


def _cli_json(tmp_path, capsys, verb, raw):
    p = tmp_path / "cfg.yaml"
    p.write_text(json.dumps(raw))
    argv = [verb, "--config", str(p)]
    if verb == "run":
        argv += ["--out", str(tmp_path / "out")]
    code = cli_main(argv)
    return code, json.loads(capsys.readouterr().out)


def test_linear_logistic_past_oracle_size_names_missing_svm(tmp_path, capsys):
    # 40 points are past the enumeration oracle's 32
    code, report = _cli_json(tmp_path, capsys, "run", {
        "scenario": "linear_logistic_2d", "seed": 0,
        "dataset": {"kind": "two_gaussians", "n": 40, "separation": 6.0,
                    "seed": 5}})
    assert code == 1
    assert report["failures"] == [
        "seed 0: no SVM reference: enumeration oracle is desk-scale; "
        "got 40 > 32"]


# the linear scenario's own defaults: the logistic loss, the seeded init
LINEAR_24 = {"scenario": "linear_logistic_2d", "target_log_inv_loss": 24.0,
             "step_tol": 0.003, "record_every": 10, "seeds": [0]}


def test_run_and_kkt_report_of_one_config_give_one_certificate(
        tmp_path, capsys):
    # both read the scenario's defaults and anchor the bounds at the
    # first separated state; before, `run` swapped in its own start and
    # anchored at the first recorded separated state, and `kkt-report`
    # kept exp and anchored at its first separated checkpoint
    code, report = _cli_json(tmp_path, capsys, "kkt-report", LINEAR_24)
    assert code == 0 and report["loss"] == "logistic"
    out = run_scenario(RunConfig.from_dict(LINEAR_24), out_dir=tmp_path)
    assert out.ok, out.failures
    kkt, last = out.summaries[0]["kkt"], report["kkt"][-1]
    for key in ("epsilon", "delta", "q_min", "eps_bound", "delta_bound"):
        assert kkt[key] == last[key], key


def test_certificate_ceilings_hold_once_beta_rounds_to_one(tmp_path, capsys):
    # the certify_linear workload's kkt-report, from the unjittered
    # start: at x = 60.07 beta rounds to 1.0, where a 1 - beta taken
    # from beta itself read 0 and put eps_bound and epsilon_beta at 0.0
    # under a positive epsilon
    code, report = _cli_json(tmp_path, capsys, "kkt-report", {
        "scenario": "linear_logistic_2d", "loss": "logistic", "seeds": [0],
        "options": {"theta0": [0.2, -0.1]}, "target_log_inv_loss": 60.0,
        "step_tol": 0.003})
    assert code == 0 and report["kkt"][-1]["beta"] == 1.0
    for cert in report["kkt"]:
        assert 0.0 < cert["epsilon"] <= cert["eps_bound"], cert["x"]
        assert cert["epsilon_beta"] > 0.0, cert["x"]


def test_printed_key_sets(tmp_path, capsys):
    # the printed results are plain dicts built where they are computed,
    # so a misspelled key would reach the output unnoticed
    summary = run_scenario(RunConfig.from_dict(LINEAR_24),
                           out_dir=tmp_path).summaries[0]
    validation = summary["loss_validation"]
    assert sorted(validation) == ["clauses", "loss", "ok"]
    for clause in validation["clauses"]:
        assert sorted(clause) == ["clause", "passed", "worst"]
    assert sorted(summary["kkt"]) == [
        "beta", "delta", "delta_bound", "eps_bound", "epsilon",
        "epsilon_beta", "log_inv_loss", "q_min"]
    _, report = _cli_json(tmp_path, capsys, "kkt-report", LINEAR_24)
    assert len(report["kkt"]) == 4
    for cert in report["kkt"]:
        assert sorted(cert) == [
            "beta", "delta", "delta_bound", "eps_bound", "epsilon",
            "epsilon_beta", "lambdas", "q_min", "rho", "x"]
    rates = run_scenario(RunConfig.from_dict(RATES_GD), out_dir=tmp_path)
    assert sorted(rates.summaries[0]["rates"]) == [
        "decades", "factor_loss", "factor_rho", "inconclusive", "passed",
        "window"]
    csv = (tmp_path / "rates-seed0-rates.csv").read_text().splitlines()
    assert csv[1] == "log10_T,ratio_loss,ratio_rho"


def test_linear_run_honours_an_explicit_exp_loss(tmp_path):
    cfg = RunConfig.from_dict({**LINEAR_24, "loss": "exp"})
    out = run_scenario(cfg, out_dir=tmp_path)
    assert out.summaries[0]["loss_validation"]["loss"] == "exp"


def test_linear_certificate_bounds_do_not_depend_on_record_every(tmp_path):
    kkts = [run_scenario(RunConfig.from_dict({**LINEAR_24, "record_every": k}),
                         out_dir=tmp_path / str(k)).summaries[0]["kkt"]
            for k in (1, 10)]
    assert kkts[0]["delta_bound"] == kkts[1]["delta_bound"]
    assert kkts[0]["eps_bound"] == kkts[1]["eps_bound"]


def test_linear_3class_corpus_entry_names_missing_references(
        tmp_path, capsys):
    # class labels are no -1/+1 signs: the SVM reference and the
    # certificate are skipped by name; before, the fixed two-entry start
    # could not be reshaped for three outputs
    raw = _emit_outputs().CORPUS["linear_3class"][1]
    out = run_scenario(RunConfig.from_dict(raw), out_dir=tmp_path)
    assert out.failures == [
        "seed 0: no SVM reference: the labels are not -1/+1",
        "seed 0: no KKT certificate: the labels are not -1/+1"]
    assert out.summaries[0]["kkt"] is None
    code, report = _cli_json(tmp_path, capsys, "kkt-report", raw)
    assert code == 1 and report["kkt"] == []
    assert report["failures"] == [
        "no KKT certificate: the labels are not -1/+1"]


# a start with q_min = -1.11 whose x already exceeds the target: the
# flow takes no step, so the final point is not separated
UNSEPARATED_END = {
    "scenario": "linear_logistic_2d", "loss": "logistic", "seed": 0,
    "target_log_inv_loss": -5.0, "options": {"theta0": [-0.5, 0.2]}}


def test_linear_logistic_unseparated_end_names_missing_certificate(
        tmp_path, capsys):
    code, report = _cli_json(tmp_path, capsys, "run", UNSEPARATED_END)
    assert code == 1
    [named, gap] = report["failures"]
    assert named.startswith(
        "seed 0: no KKT certificate: not separated at x = -2.20")
    assert gap.startswith("seed 0: svm_angle_gap = 2.70")
    summary = json.loads(
        (tmp_path / "out" / "linear_logistic_2d-seed0.summary.json")
        .read_text())
    assert summary["kkt"] is None


def test_cli_kkt_report_skips_unseparated_checkpoints(tmp_path, capsys):
    # every checkpoint target lies below f(b_f): none can be certified
    code, report = _cli_json(tmp_path, capsys, "kkt-report", UNSEPARATED_END)
    assert code == 1
    assert report["kkt"] == []
    assert len(report["failures"]) == 4
    assert report["failures"][0].startswith(
        "checkpoint x >= -0.625: not separated at x = -0.62")
