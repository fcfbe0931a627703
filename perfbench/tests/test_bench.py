"""Self-tests of the benchmark harness; not part of the tier-1 suite.

Run from the repository root:

    python3 -m pytest perfbench/tests -q
"""

import json
import re
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import bench  # noqa: E402
from workloads import README_FLOW, Job  # noqa: E402

METRIC_NAME = re.compile(r"[A-Za-z0-9_.-]+")
# the README flow stopped early and with few B-constant draws, so a
# traced round takes about a second yet still has > 1000 evaluations
SMALL_FLOW = Job("flow", "run", {
    **README_FLOW, "target_log_inv_loss": 2.0, "seeds": [3],
    "options": {"n_sphere": 40, "n_curvature": 10}})
HAT = Job("hat", "run", {"scenario": "mexican_hat", "seeds": [0]})


def test_deterministic_counts_repeat_exactly(tmp_path):
    plan = bench.prepare([SMALL_FLOW], tmp_path)
    first = bench.run_traced(plan, tmp_path, seconds=0, min_rounds=2)
    second = bench.run_traced(plan, tmp_path, seconds=0, min_rounds=1)
    assert first[2][0] == first[2][1] == second[2][0]
    assert first[2][0]["gradflow.evaluate_point.calls"] > 1000
    assert first[0][0][0].values == first[0][1][0].values \
        == second[0][0][0].values
    assert not first[0][0][0].failures
    assert bench.trace_checks(first[1], first[0]) == []
    # uninstalling restored every rebinding the tracer made
    import marginflow.models as models
    import marginflow.runner as runner
    assert not hasattr(runner.evaluate_point, "__wrapped__")
    assert not hasattr(runner.SCENARIOS["flow_margin"], "__wrapped__")
    assert not hasattr(models.HomogeneousModel.forward, "__wrapped__")


def test_metric_names_are_well_formed_and_declared(tmp_path):
    plan = bench.prepare([SMALL_FLOW], tmp_path)
    base = bench.run_rounds(plan, tmp_path, seconds=0, min_rounds=1)
    rounds, tables, counts, _ = bench.run_traced(plan, tmp_path, seconds=0,
                                                 min_rounds=1)
    end_to_end = bench.end_to_end_metrics(base, [(0.5, 0.1)])
    per_layer = bench.traced_metrics(base, rounds, tables, counts)
    for name in [*end_to_end, *per_layer]:
        assert METRIC_NAME.fullmatch(name), name
    declared = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in declared["end_to_end"]} == {
        k: u for k, (_, u) in end_to_end.items()}
    assert {m["name"]: m["unit"] for m in declared["per_layer"]} == {
        k: u for k, (_, u) in per_layer.items()}
    for name in [m["name"] for m in declared["per_layer"]]:
        assert METRIC_NAME.fullmatch(name), name


def test_failing_jobs_are_counted_not_raised(tmp_path):
    failing_check = Job("hat_short", "run", {
        "scenario": "mexican_hat", "seeds": [0],
        "options": {"phi_gain_min": 1e9}})
    raising = Job("bad_scenario", "run", {"scenario": "no_such_scenario"})
    plan = bench.prepare([HAT, failing_check, raising], tmp_path)
    rounds = bench.run_rounds(plan, tmp_path, seconds=0, min_rounds=1)
    bench.check_rounds(rounds, None, {})
    failed = [r.label for r in rounds[0] if r.failures]
    assert failed == ["hat_short", "bad_scenario"]
    assert "angle advanced only" in " ".join(rounds[0][1].failures)
    assert rounds[0][2].failures[0].startswith("raised ValueError")
    assert rounds[0][0].work > 0
    assert bench.tally(rounds) == (3, 2)
