"""Write, or compare, everything the nine seed-0 benchmark jobs emit.

Usage, from the repository root:

    python3 scripts/emit_outputs.py OUT
    python3 scripts/emit_outputs.py --compare A B

The first form runs every job of the four benchmark workloads
(`perfbench/workloads.py` at seed 0, read only) through
`marginflow.cli.main`, with the `marginflow` package of this checkout.
Each job gets a directory OUT/<workload>/<job>/ holding its YAML config,
every file it emits and its standard output (`stdout.txt`); OUT/emit.json
records the absolute output root and each job's exit code.

The second form diffs two such trees and exits 1 on any difference:
a file present in only one tree, a differing exit code, or differing
bytes. Two things are allowed to differ: the `timestamp` field of each
JSONL header (line 1), and the output root of each tree wherever it
appears in a job's standard output. To check that a change leaves every
emitted byte as it was, run the first form on a checkout of the parent
commit and on the change, then compare the two trees.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEED = 0
MANIFEST = "emit.json"


def emit(out: Path) -> int:
    # the benchmark pins BLAS to one thread before numpy loads; so do
    # we, since a threaded reduction may round differently
    os.environ.update({v: "1" for v in (
        "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
        "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")})
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import yaml
    from workloads import WORKLOADS, workload_jobs

    import marginflow.cli as cli

    out = out.resolve()
    codes = {}
    for workload in WORKLOADS:
        for job in workload_jobs(workload, SEED):
            job_dir = out / workload / job.label
            job_dir.mkdir(parents=True, exist_ok=True)
            cfg_path = job_dir / "config.yaml"
            cfg_path.write_text(yaml.safe_dump(job.config, sort_keys=True),
                                encoding="utf-8")
            argv = [job.verb, "--config", str(cfg_path)]
            if job.verb == "run":
                argv += ["--out", str(job_dir)]
            buf = io.StringIO()
            try:
                with contextlib.redirect_stdout(buf):
                    rc = cli.main(argv)
            except Exception as exc:  # recorded, so a compare sees it
                rc = f"raised {type(exc).__name__}: {exc}"
            (job_dir / "stdout.txt").write_text(buf.getvalue(),
                                                encoding="utf-8")
            codes[f"{workload}/{job.label}"] = rc
            print(f"{workload}/{job.label}: {rc}")
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
            problems.append(f"differs: {rel} (first at line {line + 1})")
    for msg in problems:
        print(msg)
    print(f"{len(common)} files in both trees, {len(problems)} differences")
    return 1 if problems else 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("paths", nargs="+", type=Path,
                   help="OUT to emit, or A B with --compare")
    p.add_argument("--compare", action="store_true",
                   help="diff two emitted trees instead of emitting one")
    args = p.parse_args(argv)
    if args.compare:
        if len(args.paths) != 2:
            p.error("--compare takes two trees")
        return compare(*args.paths)
    if len(args.paths) != 1:
        p.error("emitting takes one output directory")
    return emit(args.paths[0])


if __name__ == "__main__":
    sys.exit(main())
