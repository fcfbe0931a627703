"""Write, or compare, everything the benchmark jobs and a fixed corpus emit.

Usage, from the repository root:

    python3 scripts/emit_outputs.py OUT
    python3 scripts/emit_outputs.py --compare A B
    python3 scripts/emit_outputs.py --against REV OUT

The first form runs every job of the four benchmark workloads
(`perfbench/workloads.py` at seed 0, read only) and every entry of
`CORPUS` below through `marginflow.cli.main`, with the `marginflow`
package of this checkout. Each benchmark job gets a directory
OUT/<workload>/<job>/, each corpus entry OUT/corpus/<label>/, holding its
YAML config, every file it emits and its standard output (`stdout.txt`);
OUT/emit.json records the absolute output root and each job's exit code.

The second form diffs two such trees and exits 1 on any difference:
a file present in only one tree, a differing exit code, or differing
bytes. Two things are allowed to differ: the `timestamp` field of each
JSONL header (line 1), and the output root of each tree wherever it
appears in a job's standard output. Under each differing JSON or JSONL
file (and JSON standard output) it lists the dotted keys that moved,
each with the largest relative difference of its numbers, so a change
that moves outputs on purpose can quote its tolerance.

The third form checks that a change leaves every emitted byte as it
was. It checks out REV (any git revision, e.g. the parent commit) in a
temporary `git worktree`, emits REV's package into OUT/rev and this
checkout's into OUT/checkout, each in a fresh interpreter, removes the
worktree and compares the two trees. Both sides run this script's job
list and corpus, so only the package differs. Temporary files go where
`tempfile` puts them (TMPDIR). Byte comparisons hold on one machine
only: another CPU may round numpy's vector math differently.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import yaml

ROOT = Path(__file__).resolve().parents[1]
SEED = 0
MANIFEST = "emit.json"

# three linearly separable classes at 0, 120 and 240 degrees
THREE_CLASS_ROWS = [[2.0, 0.0, 0], [1.8, 0.4, 0], [-1.0, 1.7, 1],
                    [-1.2, 1.5, 1], [-1.0, -1.7, 2], [-0.8, -1.9, 2]]
# (verb, config) per label: the scenario, optimizer and verb branches
# that the nine benchmark jobs leave out, each a few seconds at most
CORPUS = {
    "gd_const": ("run", {
        "scenario": "gd_margin", "loss": "exp", "optimizer": "gd_const",
        "model": {"family": "linear", "input_dim": 2},
        "dataset": {"kind": "inline", "rows": [[2, 1, 1], [-1, 0.5, -1]]},
        "alpha0": 0.3, "epochs": 150, "seeds": [0],
        "options": {"n_sphere": 500, "n_curvature": 200}}),
    # gamma_hat0 underflows at separation: a named abort
    "gd_margin_abort": ("run", {
        "scenario": "gd_margin", "loss": "logistic",
        "optimizer": "gd_loss_based", "alpha0": 0.05, "epochs": 400,
        "seeds": [13]}),
    # unguarded loss-based GD until a step overflows the forward pass:
    # rejected trials, a scheduler stall, rho past 1e154
    "gd_overflow": ("run", {
        "scenario": "gd_margin", "loss": "exp", "alpha0": 0.1,
        "epochs": 3000, "seeds": [0], "options": {"s5_guard": False}}),
    "rates_gd": ("run", {
        "scenario": "rates", "loss": "exp", "optimizer": "gd_loss_based",
        "alpha0": 0.1, "epochs": 600, "seeds": [1]}),
    # no loss key: the scenario's default loss, logistic
    "linear_exp_mapping": ("run", {
        "scenario": "linear_logistic_2d", "record_every": 10, "seeds": [0]}),
    "flow_logistic": ("run", {
        "scenario": "flow_margin", "loss": "logistic",
        "target_log_inv_loss": 8.0, "step_tol": 0.003, "record_every": 10,
        "seeds": [1]}),
    "flow_3class": ("run", {
        "scenario": "flow_margin", "loss": "cross_entropy",
        "model": {"family": "relu_mlp", "input_dim": 2, "widths": [6],
                  "num_outputs": 3},
        "dataset": {"kind": "inline", "rows": THREE_CLASS_ROWS},
        "target_log_inv_loss": 8.0, "step_tol": 0.003, "record_every": 10,
        "seeds": [0]}),
    # class labels: no SVM reference and no certificate, both named
    "linear_3class": ("run", {
        "scenario": "linear_logistic_2d", "loss": "cross_entropy",
        "model": {"family": "linear", "input_dim": 2, "num_outputs": 3},
        "dataset": {"kind": "inline", "rows": THREE_CLASS_ROWS},
        "target_log_inv_loss": 8.0, "step_tol": 0.003, "record_every": 10,
        "seeds": [0]}),
    # multi-class descent: no B-constants, so no (S5) margin state and a
    # named failure
    "gd_3class": ("run", {
        "scenario": "gd_margin", "loss": "cross_entropy",
        "model": {"family": "relu_mlp", "input_dim": 2, "widths": [6],
                  "num_outputs": 3},
        "dataset": {"kind": "inline", "rows": THREE_CLASS_ROWS},
        "epochs": 60, "seeds": [0]}),
    # unguarded exp descent on two points until the scheduler stalls
    # with alpha near 1e300: a named stall, no traceback
    "gd_alpha_past_1e300": ("run", {
        "scenario": "gd_margin", "loss": "exp",
        "model": {"family": "linear", "input_dim": 2},
        "dataset": {"kind": "inline", "rows": [[2, 1, 1], [-1, 0.5, -1]]},
        "alpha0": 0.1, "epochs": 6000, "seeds": [0],
        "options": {"s5_guard": False}}),
    # class labels: no plain float64 replay, a named failure
    "deep_loss_3class": ("run", {
        "scenario": "deep_loss_50", "loss": "cross_entropy",
        "model": {"family": "relu_mlp", "input_dim": 2, "widths": [6],
                  "num_outputs": 3},
        "dataset": {"kind": "inline", "rows": THREE_CLASS_ROWS},
        "epochs": 20, "seeds": [0]}),
    "flow_deep_linear_exp_cubed": ("run", {
        "scenario": "flow_margin", "loss": "exp_cubed",
        "model": {"family": "deep_linear", "input_dim": 2, "widths": [3]},
        "target_log_inv_loss": 8.0, "step_tol": 0.003, "record_every": 10,
        "seeds": [0]}),
    # the spherical metric does not conserve the phase: fails its checks
    "hat_spherical": ("run", {
        "scenario": "mexican_hat", "record_every": 10, "seeds": [0],
        "options": {"metric": "spherical"}}),
    "deep_loss_short": ("run", {
        "scenario": "deep_loss_50", "loss": "exp",
        "optimizer": "gd_loss_based", "alpha0": 0.1, "epochs": 60,
        "seeds": [0]}),
    "kkt_theta0": ("kkt-report", {
        "scenario": "linear_logistic_2d", "loss": "logistic",
        "target_log_inv_loss": 24.0, "step_tol": 0.003, "seeds": [0],
        "options": {"theta0": [0.2, -0.1]}}),
    "kkt_init": ("kkt-report", {
        "scenario": "linear_logistic_2d", "loss": "exp",
        "target_log_inv_loss": 24.0, "step_tol": 0.003, "seeds": [3]}),
    "rates_verb": ("rates", {
        "scenario": "rates", "loss": "exp", "target_log_inv_loss": 18.0,
        "step_tol": 0.002, "seeds": [1]}),
    "hat_verb": ("hat", {
        "scenario": "mexican_hat", "record_every": 20, "seeds": [0]}),
    # not a run config: the losses that `validate-loss --loss` checks
    "validate_loss": ("validate-loss", {
        "loss": ["exp", "logistic", "cross_entropy", "exp_cubed"]}),
    # rejected at load: a misspelled option, an optimizer the scenario
    # does not run, a key the run does not read, a value not of its
    # default's type; the manifest records each message
    "rejected_option": ("run", {
        "scenario": "gd_margin", "loss": "exp", "epochs": 20, "seeds": [0],
        "options": {"n_spere": 10}}),
    "rejected_optimizer": ("run", {
        "scenario": "deep_loss_50", "loss": "exp", "optimizer": "gd_const",
        "epochs": 20, "seeds": [0]}),
    "rejected_unread_key": ("run", {
        "scenario": "flow_margin", "alpha0": 0.5, "seeds": [0]}),
    "rejected_cast": ("run", {
        "scenario": "gd_margin", "epochs": 10.9, "seeds": [0]}),
    # rejected at load, as sections are read against their builders: a
    # dataset key, a model key, and a key that the family does not read
    "rejected_dataset_key": ("run", {
        "scenario": "flow_margin", "seeds": [0],
        "dataset": {"kind": "two_gaussians", "n": 12, "bogus": 1}}),
    "rejected_model_key": ("run", {
        "scenario": "flow_margin", "seeds": [0],
        "model": {"family": "relu_mlp", "input_dim": 2, "widths": [6],
                  "bogus": 1}}),
    "rejected_family_key": ("run", {
        "scenario": "flow_margin", "seeds": [0],
        "model": {"family": "linear", "input_dim": 2, "widths": [6]}}),
}


def _run_job(cli, job_dir: Path, verb: str, config: dict):
    """Run one command line in job_dir; its exit code, or what it raised."""
    job_dir.mkdir(parents=True, exist_ok=True)
    cfg_path = job_dir / "config.yaml"
    cfg_path.write_text(yaml.safe_dump(config, sort_keys=True),
                        encoding="utf-8")
    if verb == "validate-loss":
        argv = [verb, "--loss", *config["loss"]]
    else:
        argv = [verb, "--config", str(cfg_path)]
    if verb in ("run", "hat"):
        argv += ["--out", str(job_dir)]
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            rc = cli.main(argv)
    except Exception as exc:  # recorded, so a compare sees it
        rc = f"raised {type(exc).__name__}: {exc}"
    (job_dir / "stdout.txt").write_text(buf.getvalue(), encoding="utf-8")
    return rc


def emit(out: Path, src: Path = ROOT / "src") -> int:
    """Emit every job with the `marginflow` package found under src."""
    # the benchmark pins BLAS to one thread before numpy loads; so do
    # we, since a threaded reduction may round differently
    os.environ.update({v: "1" for v in (
        "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
        "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")})
    sys.path[:0] = [str(src), str(ROOT / "perfbench")]
    from workloads import WORKLOADS, workload_jobs

    import marginflow.cli as cli

    out = out.resolve()
    jobs = {f"{workload}/{job.label}": (job.verb, job.config)
            for workload in WORKLOADS
            for job in workload_jobs(workload, SEED)}
    jobs.update({f"corpus/{label}": entry for label, entry in CORPUS.items()})
    codes = {}
    for name, (verb, config) in jobs.items():
        codes[name] = _run_job(cli, out / name, verb, config)
        print(f"{name}: {codes[name]}")
    (out / MANIFEST).write_text(
        json.dumps({"root": str(out), "seed": SEED, "exit_codes": codes},
                   indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return 0


def _files(tree: Path) -> set[str]:
    return {p.relative_to(tree).as_posix() for p in tree.rglob("*")
            if p.is_file() and p.name != MANIFEST}


def _normalised(path: Path, rel: str, root: str) -> bytes:
    data = path.read_bytes()
    if rel.endswith(".jsonl"):
        first, sep, rest = data.partition(b"\n")
        header = json.loads(first)
        header.pop("timestamp", None)
        return json.dumps(header, sort_keys=True).encode() + sep + rest
    if rel.endswith("stdout.txt"):
        return data.replace(root.encode(), b"<OUT>")
    return data


def _leaves(v, key=""):
    """(dotted key, value) for each scalar in a parsed JSON value."""
    if isinstance(v, (dict, list)):
        items = v.items() if isinstance(v, dict) else enumerate(v)
        for k, x in items:
            yield from _leaves(x, f"{key}.{k}" if key else str(k))
    else:
        yield key, v


def _rel_diff(x, y) -> float:
    if x == y:
        return 0.0
    scale = max(abs(x), abs(y))
    return abs(x - y) / scale if scale < float("inf") else float("inf")


def _moved(la: list[bytes], lb: list[bytes], rel: str) -> list[str]:
    """What moved between two JSON files (or JSONL, line by line): per
    dotted key, the largest relative difference of its numbers, or
    "changed" where a non-number changed or a key is on one side only.
    JSONL keys leave out the line, so a key counts every record. Other
    files, and text that is not JSON, give nothing."""
    if rel.endswith(".jsonl"):
        docs = list(zip(la, lb))
        if len(la) != len(lb):
            docs.append((f'{{"lines": {len(la)}}}', f'{{"lines": {len(lb)}}}'))
    elif rel.endswith((".json", "stdout.txt")):
        docs = [(b"\n".join(la), b"\n".join(lb))]
    else:
        return []
    worst: dict[str, float | str] = {}
    missing = object()
    try:
        for da, db in docs:
            va, vb = (dict(_leaves(json.loads(d))) for d in (da, db))
            for key in va.keys() | vb.keys():
                x, y = va.get(key, missing), vb.get(key, missing)
                numbers = all(isinstance(v, (int, float))
                              and not isinstance(v, bool) for v in (x, y))
                if numbers and worst.get(key) != "changed":
                    worst[key] = max(worst.get(key, 0.0), _rel_diff(x, y))
                elif x != y or type(x) is not type(y):
                    worst[key] = "changed"
    except ValueError:  # not JSON
        return []
    return [f"{key}: " + (d if d == "changed"
                          else f"largest relative difference {d:.3e}")
            for key, d in sorted(worst.items()) if d]


def compare(a: Path, b: Path) -> int:
    man_a = json.loads((a / MANIFEST).read_text(encoding="utf-8"))
    man_b = json.loads((b / MANIFEST).read_text(encoding="utf-8"))
    problems = []
    if man_a["exit_codes"] != man_b["exit_codes"]:
        problems.append(f"exit codes differ: {man_a['exit_codes']} vs "
                        f"{man_b['exit_codes']}")
    files_a, files_b = _files(a), _files(b)
    problems += [f"only in {a}: {f}" for f in sorted(files_a - files_b)]
    problems += [f"only in {b}: {f}" for f in sorted(files_b - files_a)]
    common = sorted(files_a & files_b)
    for rel in common:
        da = _normalised(a / rel, rel, man_a["root"])
        db = _normalised(b / rel, rel, man_b["root"])
        if da != db:
            la, lb = da.splitlines(), db.splitlines()
            line = next((i for i, (x, y) in enumerate(zip(la, lb)) if x != y),
                        min(len(la), len(lb)))
            problems.append(f"differs: {rel} (first at line {line + 1})"
                            + "".join(f"\n  {m}" for m in _moved(la, lb, rel)))
    for msg in problems:
        print(msg)
    print(f"{len(common)} files in both trees, {len(problems)} differences")
    return 1 if problems else 0


def _emit_tree(src: Path, out: Path) -> None:
    """Emit with the package under src, in a fresh interpreter, so the
    two packages of a comparison never share one process."""
    code = ("import sys; from pathlib import Path; "
            f"sys.path.insert(0, {str(Path(__file__).resolve().parent)!r}); "
            "import emit_outputs; "
            f"emit_outputs.emit(Path({str(out)!r}), Path({str(src)!r}))")
    subprocess.run([sys.executable, "-c", code], check=True)


def against(rev: str, out: Path, emit_tree=_emit_tree,
            repo: Path = ROOT) -> int:
    """Emit REV, checked out in a temporary worktree of repo, and repo's
    own checkout; then compare the two trees."""
    git = ["git", "-C", str(repo), "worktree"]
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp) / "rev"
        subprocess.run([*git, "add", "--detach", str(tree), rev],
                       check=True, capture_output=True)
        try:
            emit_tree(tree / "src", out / "rev")
        finally:
            subprocess.run([*git, "remove", "--force", str(tree)],
                           check=True, capture_output=True)
    emit_tree(repo / "src", out / "checkout")
    return compare(out / "rev", out / "checkout")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("paths", nargs="+", type=Path,
                   help="OUT to emit, or A B with --compare")
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--compare", action="store_true",
                      help="diff two emitted trees instead of emitting one")
    mode.add_argument("--against", metavar="REV",
                      help="emit REV and this checkout into OUT, then diff")
    args = p.parse_args(argv)
    if args.compare:
        if len(args.paths) != 2:
            p.error("--compare takes two trees")
        return compare(*args.paths)
    if len(args.paths) != 1:
        p.error("emitting takes one output directory")
    if args.against:
        return against(args.against, args.paths[0])
    return emit(args.paths[0])


if __name__ == "__main__":
    sys.exit(main())
