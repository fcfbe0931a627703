"""Acceptance suite: one test per numbered criterion.

`pytest -v tests/test_acceptance.py` prints one pass/fail line per
criterion. Tolerances and runtime budgets are asserted inside the
tests; shared trajectories come from module-scoped fixtures so the
budgeted work runs once.
"""

import itertools
import json
import math
import time

import numpy as np
import pytest

from marginflow import gradflow
from marginflow.datasets import from_rows, two_gaussians
from marginflow.gdtrain import estimate_b_constants, train_gd
from marginflow.gradflow import (flow_states, log_tilde_margin, run_flow,
                                 run_hat)
from marginflow.kkt import (build_certificate, direction_gap_to_svm,
                            svm_oracle)
from marginflow.losses import get_loss, validate_b3
from marginflow.models import build_model, init_params
from marginflow.rates import bounded_ratio_verdict, rate_ratios
from marginflow.runner import LINEAR_2D_ROWS, RunConfig, run_scenario

from oracles import (Beta2Accumulator, euler_residual, fd_grad,
                     homogeneity_check, per_sample_grads, rel_err,
                     sample_smooth_probe, walked)

EXP = get_loss("exp")
LOGISTIC = get_loss("logistic")

N_POINTS = 12
FLOW_SEEDS = range(10)


@pytest.fixture(scope="module")
def flow_runs():
    """Ten seeded flow runs of the 2-layer ReLU setup (criteria 1,3,5,8)."""
    ds = two_gaussians(N_POINTS, 2, separation=3.0, seed=5)
    model = build_model("relu_mlp", 2, [6])
    t0 = time.perf_counter()
    outs = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gradflow, "MAX_STEPS", 40_000)  # each run's step budget
        for seed in FLOW_SEEDS:
            theta0 = init_params(model, np.random.default_rng(seed),
                                 scale=0.7)
            outs.append(run_flow(model, theta0, ds, EXP,
                                 target_log_inv_loss=12.0, step_tol=2e-3,
                                 record_every=1))
    elapsed = time.perf_counter() - t0
    return {"outs": outs, "elapsed": elapsed, "model": model, "ds": ds}


def test_criterion_01_flow_margin_monotone(flow_runs):
    assert flow_runs["elapsed"] <= 120.0
    floor = math.log1p(-1e-6)  # per-step drop of at most 1e-6 relative
    for out in flow_runs["outs"]:
        assert out["state"].ev.x >= 12.0
        d = out["monitors"]["d_log_tilde"]
        assert len(d) > 100
        assert min(d) >= floor


def test_criterion_02_gd_margin_monotone_and_ordered():
    ds = two_gaussians(N_POINTS, 2, separation=3.0, seed=5)
    model = build_model("relu_mlp", 2, [6])
    theta0 = init_params(model, np.random.default_rng(1), scale=0.7)
    b = estimate_b_constants(model, ds, np.random.default_rng(1), 2_000, 500)
    res = train_gd(model, theta0, ds, EXP, b, epochs=400, alpha0=0.05,
                   mode="loss_based", s5_guard=True, guard_safety=0.5)
    assert not res["flagged_epochs"]
    s5 = res["monitors"]["s5_log_ratio"]
    assert len(s5) > 300 and max(s5) <= 1e-12  # (S5) passes every epoch
    hats = [math.exp(r["log_hat"]) for r in res["records"] if "log_hat" in r]
    assert len(hats) > 300
    for prev, cur in zip(hats, hats[1:]):
        assert cur >= prev - 1e-10
    for rec in res["records"]:
        if "log_hat" not in rec or "log_tilde" not in rec:
            continue
        hat = math.exp(rec["log_hat"])
        tilde = math.exp(rec["log_tilde"])
        assert hat < tilde + 1e-12
        assert tilde <= rec["bar_gamma"] + 1e-12


def test_criterion_03_sandwich_every_checkpoint(flow_runs):
    L = flow_runs["model"].order_L
    log_n = math.log(flow_runs["ds"].n)
    checked = 0
    for out in flow_runs["outs"]:
        for rec in out["records"]:
            if "log_tilde" not in rec or not math.isfinite(rec["log_tilde"]):
                continue
            tilde = math.exp(rec["log_tilde"])
            bar = rec["bar_gamma"]
            assert tilde <= bar + 1e-12
            assert tilde >= bar - log_n / rec["rho"] ** L - 1e-12
            checked += 1
    assert checked > 1_000


def test_criterion_04_validators_and_fd_gradients():
    families = [
        ("linear", ()),
        ("deep_linear", ([3, 3],)),
        ("relu_mlp", ([6],)),
        ("leaky_relu_mlp", ([5],)),
        ("quadratic_mlp", ([4],)),
    ]
    rng = np.random.default_rng(11)
    for family, widths in families:
        model = build_model(family, 2, *widths)
        theta = init_params(model, rng)
        for _ in range(100):
            x = sample_smooth_probe(model, theta, rng, kink_tol=1e-3)
            assert euler_residual(model, theta, x) <= 1e-9
            alpha = float(rng.uniform(0.5, 2.0))
            assert homogeneity_check(model, theta, x, alpha) <= 1e-9
        for _ in range(100):
            x = sample_smooth_probe(model, theta, rng, kink_tol=1e-3)
            analytic = per_sample_grads(model, theta, x)[0]
            numeric = fd_grad(lambda t: float(walked(model, t, x)[0][0, 0]),
                              theta)
            assert rel_err(analytic, numeric) <= 1e-5


def test_criterion_05_weight_growth_identity(flow_runs):
    for out in flow_runs["outs"]:
        res = np.abs(np.asarray(out["monitors"]["growth_residual"]))
        assert res.size > 100
        assert float(np.mean(res <= 1e-3)) >= 0.95


def test_criterion_06_linear_svm_convergence():
    t0 = time.perf_counter()
    ds = from_rows(LINEAR_2D_ROWS)
    model = build_model("linear", 2)
    states = flow_states(model, np.array([0.2, -0.1]), ds, LOGISTIC,
                         step_tol=3e-3)
    for state, _ in itertools.islice(states, 50_001):  # 50,000 steps
        if state.ev.x >= 200.0:
            break
    assert state.ev.x >= 200.0
    w_star, _ = svm_oracle(ds.X, ds.y)
    assert direction_gap_to_svm(state.ev.theta, w_star) <= 0.02
    assert time.perf_counter() - t0 <= 30.0


def test_criterion_07_rates_bounded_for_both_orders():
    # L = 2: flow on a small ReLU net
    ds = two_gaussians(8, 2, separation=3.0, seed=5)
    model = build_model("relu_mlp", 2, [4])
    theta0 = init_params(model, np.random.default_rng(3), scale=0.7)
    out = run_flow(model, theta0, ds, EXP, target_log_inv_loss=18.0,
                   step_tol=2e-3, record_every=1)
    diag = rate_ratios(out["records"], EXP, model.order_L, ds.n)
    assert diag["decades"] >= 3.0
    verdict = bounded_ratio_verdict(diag)
    assert verdict["passed"]
    assert verdict["factor_loss"] <= 10.0 and verdict["factor_rho"] <= 10.0

    # L = 1: step-capped descent on a linear model
    ds1 = from_rows([[2, 1, 1], [-1, 0.5, -1]])
    lin = build_model("linear", 2)
    b = estimate_b_constants(lin, ds1, np.random.default_rng(0), 10_000,
                             1_000)
    res = train_gd(lin, np.array([0.3, 0.05]), ds1, EXP, b, epochs=1_000,
                   alpha0=1.0, mode="loss_based", s5_guard=True,
                   guard_safety=0.9)
    diag1 = rate_ratios(res["records"], EXP, lin.order_L, ds1.n)
    assert diag1["decades"] >= 3.0
    verdict1 = bounded_ratio_verdict(diag1)
    assert verdict1["passed"]
    assert verdict1["factor_loss"] <= 10.0 and verdict1["factor_rho"] <= 10.0


def test_criterion_08_kkt_trends(flow_runs):
    L = flow_runs["model"].order_L
    # beta median rises from the first quarter to the last on every run
    for out in flow_runs["outs"]:
        # the states past the first separated one, as the monitors take
        beta = [r["beta"] for r in out["records"] if "log_tilde" in r][1:]
        q = len(beta) // 4
        assert np.median(beta[-q:]) > np.median(beta[:q])

    # beta^2 integral bound with slack <= 1e-6 on every run
    for out in flow_runs["outs"]:
        acc = Beta2Accumulator(order_L=L)
        anchored = [r for r in out["records"]
                    if math.isfinite(r.get("log_tilde", -math.inf))]
        for prev, cur in zip(anchored, anchored[1:]):
            acc.update(prev["beta"],
                       math.log(cur["rho"]) - math.log(prev["rho"]))
        assert acc.total >= 0.0
        assert acc.bound_slack(anchored[0]["log_tilde"],
                               anchored[-1]["log_tilde"], tol=1e-6) >= 0.0

    # delta within its certified decay bound at every checkpoint past b_g
    ds = flow_runs["ds"]
    model = flow_runs["model"]
    theta0 = init_params(model, np.random.default_rng(0), scale=0.7)
    states = flow_states(model, theta0, ds, EXP, step_tol=2e-3)
    state, _ = next(states)
    anchor = None
    for x_target in (6.0, 12.0, 24.0):  # all past b_g = 0 for exp
        while state.ev.x < x_target:
            state, _ = next(states)
        if anchor is None:
            [anchor] = log_tilde_margin([state.ev.x], [state.ev.rho], EXP,
                                        model.order_L)
        cert = build_certificate(model, state.ev, ds, EXP,
                                 log_tilde_t0=anchor)
        assert cert["delta"] <= cert["delta_bound"]


def test_criterion_09_deep_loss_numerics(tmp_path):
    t0 = time.perf_counter()
    cfg = RunConfig.from_dict({
        "scenario": "deep_loss_50", "loss": "exp",
        "optimizer": "gd_loss_based", "alpha0": 0.1, "epochs": 500,
        "seed": 0})
    out = run_scenario(cfg, out_dir=tmp_path)
    assert out.ok, out.failures
    s = out.summaries[0]
    assert s["final"]["log10_loss"] <= -50.0
    assert s["final"]["epochs"] <= 500
    assert s["frame_equivalence"]["max_rel"] <= 1e-8
    assert {k: c["bound"] for k, c in s["checks"].items()} == {
        "log10_loss": -50.0, "non_finite_values": 0, "frame_max_rel": 1e-8}
    assert s["checks"]["non_finite_values"]["worst"] == 0
    # re-read the emitted records: every value must be finite
    lines = (tmp_path / "deep_loss_50-seed0.jsonl").read_text().splitlines()
    for line in lines[1:]:
        for key, val in json.loads(line).items():
            if isinstance(val, float):
                assert math.isfinite(val), (key, val)
    assert time.perf_counter() - t0 <= 60.0


def test_criterion_10_mexican_hat_circles_without_converging():
    t0 = time.perf_counter()
    records = run_hat(record_every=10, metric="planar")
    assert max(abs(r["psi"]) for r in records) <= 1e-3
    assert records[-1]["r"] > 0.99
    assert records[-1]["phi"] - records[0]["phi"] >= 4.0 * math.pi
    assert time.perf_counter() - t0 <= 10.0


def test_criterion_11_loss_validators():
    assert validate_b3(EXP)["ok"]
    report = validate_b3(LOGISTIC)
    assert report["ok"], [c for c in report["clauses"] if not c["passed"]]
    assert abs(math.exp(-LOGISTIC.f_at_bf) - math.log(2.0)) <= 1e-12
    assert abs(float(LOGISTIC.g_prime(40.0)) - 1.0) <= 1e-10
