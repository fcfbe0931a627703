"""Command-line entry points.

Verbs:
  run            execute a configured scenario; exit 1 on any failure
  validate-loss  print the clause report for one or more loss families
  kkt-report     certificates at checkpoints along a configured run
  rates          rate diagnostic plus bounded-ratio verdict
  hat            integrate the rotating construction and write its CSV
"""

from __future__ import annotations

import argparse
import ctypes
import json
import sys

from .losses import get_loss, validate_b3
from .runner import (KKT_FRACTIONS, RunConfig, SCENARIOS, _jsonable,
                     _summary, config_digest, kkt_report, load_config,
                     run_scenario)


def _add_config(p: argparse.ArgumentParser, required: bool = True):
    p.add_argument("--config", required=required,
                   help="YAML or JSON run configuration")
    p.add_argument("--seed", type=int, default=None,
                   help="override the configured seed list with one seed")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="marginflow",
        description="margin dynamics experiments for homogeneous models")
    sub = parser.add_subparsers(dest="verb", required=True)

    run = sub.add_parser("run", help="execute a scenario config")
    _add_config(run)

    p = sub.add_parser("validate-loss", help="check loss family conditions")
    p.add_argument("--loss", nargs="+", default=["exp", "logistic"],
                   help="registered loss names")

    _add_config(sub.add_parser(
        "kkt-report", help="optimality certificates along a run"))
    _add_config(sub.add_parser(
        "rates", help="loss and norm rate diagnostic for a run"))

    hat = sub.add_parser("hat", help="run the rotating counterexample")
    _add_config(hat, required=False)
    # only the verbs that write files take an output directory
    for p in (run, hat):
        p.add_argument("--out", default=None, help="override the output dir")
    return parser


def _load(args, scenario: str | None = None) -> tuple[RunConfig, int]:
    """The config (the scenario's defaults without --config) and the
    seed of a one-seed verb: --seed, else the first configured seed."""
    cfg = (load_config(args.config) if args.config
           else RunConfig.from_dict({"scenario": scenario}))
    if scenario is not None and cfg.scenario != scenario:
        raise SystemExit(f"{args.verb} expects a {scenario} config")
    return cfg, cfg.seeds[0] if args.seed is None else args.seed


def cmd_run(args) -> int:
    cfg, _ = _load(args)
    outcome = run_scenario(cfg, seed=args.seed, out_dir=args.out)
    report = {
        "scenario": cfg.scenario,
        "config_sha256": config_digest(cfg.raw),
        "runs": len(outcome.summaries),
        "files": [str(p) for p in outcome.paths],
        "failures": outcome.failures,
    }
    print(json.dumps(_jsonable(report), indent=2, sort_keys=True))
    return 0 if outcome.ok else 1


def cmd_validate_loss(args) -> int:
    reports = [validate_b3(get_loss(name)) for name in args.loss]
    print(json.dumps(reports, indent=2, sort_keys=True))
    return 0 if all(r["ok"] for r in reports) else 1


def cmd_kkt_report(args) -> int:
    cfg, seed = _load(args, "linear_logistic_2d")
    report = kkt_report(cfg, seed)
    print(json.dumps(_jsonable(report), indent=2, sort_keys=True))
    # a flow that stopped short of the last checkpoint is a failure
    return 0 if len(report["kkt"]) == len(KKT_FRACTIONS) else 1


def cmd_rates(args) -> int:
    cfg, seed = _load(args, "rates")
    result = SCENARIOS["rates"](cfg, seed)
    print(json.dumps(_summary(cfg, seed, result), indent=2, sort_keys=True))
    return 0 if not result["failures"] else 1


def cmd_hat(args) -> int:
    cfg, seed = _load(args, "mexican_hat")
    outcome = run_scenario(cfg, seed=seed, out_dir=args.out)
    print(json.dumps(_jsonable(outcome.summaries[0]), indent=2,
                     sort_keys=True))
    return 0 if outcome.ok else 1


COMMANDS = {
    "run": cmd_run,
    "validate-loss": cmd_validate_loss,
    "kkt-report": cmd_kkt_report,
    "rates": cmd_rates,
    "hat": cmd_hat,
}


# glibc's M_TRIM_THRESHOLD: by default it hands 128 KiB of free heap top
# back to the system, and a wide flow step frees about a megabyte of
# arrays, so without a hole that large each evaluation faults them in
M_TRIM_THRESHOLD = -1


def main(argv=None) -> int:
    libc = ctypes.CDLL(None) if sys.platform.startswith("linux") else None
    if hasattr(libc, "mallopt"):
        libc.mallopt(M_TRIM_THRESHOLD, 64 << 20)
    args = build_parser().parse_args(argv)
    return COMMANDS[args.verb](args)


if __name__ == "__main__":
    sys.exit(main())
