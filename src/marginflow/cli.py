"""Command-line entry points: `run`, `validate-loss`, and the `VIEWS`."""

from __future__ import annotations

import argparse
import ctypes
import json
import sys

from .losses import get_loss, validate_b3
from .runner import (RunConfig, SCENARIOS, _summary, config_digest,
                     load_config, run_scenario)


def _kkt_part(summary: dict) -> dict:
    """The certified checkpoints, and any others as `failures`."""
    entries = summary["checkpoints"]
    report = {"config_sha256": summary["config_sha256"],
              "seed": summary["seed"],
              "loss": summary["loss_validation"]["loss"],
              "kkt": [c for c in entries if isinstance(c, dict)]}
    failures = [c for c in entries if isinstance(c, str)]
    if failures:
        report["failures"] = failures
    return report


# verb: (scenario, help, part, writes). A view runs its scenario at one
# seed as `run` does, prints `part` of the summary (None: all of it) and
# exits 1 when that names failures; one that writes `run`'s files takes
# --out, and without --config runs the scenario's defaults
VIEWS = {
    "kkt-report": ("linear_logistic_2d", "optimality certificates along "
                   "a run", _kkt_part, False),
    "rates": ("rates", "loss and norm rate diagnostic for a run", None,
              False),
    "hat": ("mexican_hat", "run the rotating counterexample", None, True),
}


def _add_run_args(p: argparse.ArgumentParser, required: bool, writes: bool):
    p.add_argument("--config", required=required,
                   help="YAML or JSON run configuration")
    p.add_argument("--seed", type=int, default=None,
                   help="override the configured seed list with one seed")
    if writes:  # only the verbs that write files take an output directory
        p.add_argument("--out", default=None, help="override the output dir")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="marginflow",
        description="margin dynamics experiments for homogeneous models")
    sub = parser.add_subparsers(dest="verb", required=True)

    _add_run_args(sub.add_parser("run", help="execute a scenario config"),
                required=True, writes=True)

    p = sub.add_parser("validate-loss", help="check loss family conditions")
    p.add_argument("--loss", nargs="+", default=["exp", "logistic"],
                   help="registered loss names")

    for verb, (_, help_, _, writes) in VIEWS.items():
        _add_run_args(sub.add_parser(verb, help=help_), required=not writes,
                    writes=writes)
    return parser


def cmd_run(args) -> int:
    cfg = load_config(args.config)
    outcome = run_scenario(cfg, seed=args.seed, out_dir=args.out)
    report = {
        "scenario": cfg.scenario,
        "config_sha256": config_digest(cfg.raw),
        "runs": len(outcome.summaries),
        "files": [str(p) for p in outcome.paths],
        "failures": outcome.failures,
    }
    print(json.dumps(report, indent=2, sort_keys=True))
    return 0 if outcome.ok else 1


def cmd_validate_loss(args) -> int:
    reports = [validate_b3(get_loss(name)) for name in args.loss]
    print(json.dumps(reports, indent=2, sort_keys=True))
    return 0 if all(r["ok"] for r in reports) else 1


def cmd_view(args) -> int:
    scenario, _, part, writes = VIEWS[args.verb]
    cfg = (load_config(args.config) if args.config
           else RunConfig.from_dict({"scenario": scenario}))
    if cfg.scenario != scenario:
        raise SystemExit(f"{args.verb} expects a {scenario} config")
    seed = cfg.seeds[0] if args.seed is None else args.seed
    if writes:
        summary = run_scenario(cfg, seed=seed, out_dir=args.out).summaries[0]
    else:
        summary = _summary(cfg, seed, SCENARIOS[scenario](cfg, seed))
    report = summary if part is None else part(summary)
    print(json.dumps(report, indent=2, sort_keys=True))
    return 1 if report.get("failures") else 0


COMMANDS = {"run": cmd_run, "validate-loss": cmd_validate_loss,
            **dict.fromkeys(VIEWS, cmd_view)}


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
