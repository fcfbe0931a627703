"""scripts/emit_outputs.py: what --compare ignores and flags, and the
worktree plumbing of --against, with a stub in place of the emitter."""

import importlib.util
import json
import subprocess
import tempfile
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "emit_outputs.py"
_spec = importlib.util.spec_from_file_location("emit_outputs", SCRIPT)
emit_outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(emit_outputs)


def _tree(root: Path, stamp: str, value: str = "1.5") -> Path:
    job = root / "flow_small" / "flow_margin.0"
    job.mkdir(parents=True)
    header = {"config": {"scenario": "flow_margin"}, "seed": 0,
              "timestamp": stamp}
    (job / "flow_margin-seed0.jsonl").write_text(
        json.dumps(header, sort_keys=True) + "\n" + '{"x": ' + value + "}\n")
    (job / "flow_margin-seed0-loss.csv").write_text("step,x\n0," + value + "\n")
    (job / "stdout.txt").write_text(
        json.dumps({"files": [str(job / "flow_margin-seed0.jsonl")]}))
    (root / emit_outputs.MANIFEST).write_text(json.dumps(
        {"root": str(root), "seed": 0,
         "exit_codes": {"flow_small/flow_margin.0": 0}}))
    return root


def test_compare_ignores_timestamp_and_output_root(tmp_path, capsys):
    a = _tree(tmp_path / "a", "2026-01-01T00:00:00")
    b = _tree(tmp_path / "b", "2026-06-30T12:00:00")
    assert emit_outputs.main(["--compare", str(a), str(b)]) == 0
    assert "3 files in both trees, 0 differences" in capsys.readouterr().out


def test_compare_flags_bytes_missing_files_and_exit_codes(tmp_path, capsys):
    a = _tree(tmp_path / "a", "t0")
    b = _tree(tmp_path / "b", "t0", value="1.5000000000000002")
    assert emit_outputs.main(["--compare", str(a), str(b)]) == 1
    out = capsys.readouterr().out
    assert "differs: flow_small/flow_margin.0/flow_margin-seed0.jsonl " \
        "(first at line 2)" in out
    assert "differs: flow_small/flow_margin.0/flow_margin-seed0-loss.csv" in out

    c = _tree(tmp_path / "c", "t0")
    (c / "flow_small" / "flow_margin.0" / "flow_margin-seed0-loss.csv").unlink()
    manifest = json.loads((c / emit_outputs.MANIFEST).read_text())
    manifest["exit_codes"]["flow_small/flow_margin.0"] = 1
    (c / emit_outputs.MANIFEST).write_text(json.dumps(manifest))
    assert emit_outputs.main(["--compare", str(a), str(c)]) == 1
    out = capsys.readouterr().out
    assert "exit codes differ" in out
    assert f"only in {a}: flow_small/flow_margin.0/flow_margin-seed0-loss.csv" \
        in out



def test_compare_lists_the_keys_that_moved(tmp_path, capsys):
    a = _tree(tmp_path / "a", "t0")
    b = _tree(tmp_path / "b", "t0", value="1.65")
    for root, b0, failures in [(a, 1.0, []), (b, 1.25, ["x short"])]:
        (root / "flow_small" / "flow_margin.0" / "s.summary.json").write_text(
            json.dumps({"b_constants": {"b0": b0, "b2": 3.0},
                        "failures": failures}))
    assert emit_outputs.main(["--compare", str(a), str(b)]) == 1
    out = capsys.readouterr().out
    assert "flow_margin-seed0.jsonl (first at line 2)\n" \
        "  x: largest relative difference 9.091e-02\n" in out
    assert "s.summary.json (first at line 1)\n" \
        "  b_constants.b0: largest relative difference 2.000e-01\n" \
        "  failures.0: changed\n" in out
    assert "b2" not in out
    # a CSV names no keys
    assert "flow_margin-seed0-loss.csv (first at line 2)\ndiffers" in out

def _git(repo: Path, *args) -> str:
    return subprocess.run(["git", "-C", str(repo), *args], check=True,
                          capture_output=True, text=True).stdout


def test_against_emits_rev_from_a_temporary_worktree(tmp_path, capsys,
                                                     monkeypatch):
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    repo = tmp_path / "repo"
    (repo / "src").mkdir(parents=True)
    (repo / "src" / "value.txt").write_text("1.5")
    _git(repo, "init", "-q")
    _git(repo, "add", "-A")
    _git(repo, "-c", "user.name=t", "-c", "user.email=t@example.com",
         "commit", "-q", "-m", "base")
    seen = []

    def stub(src, out):
        seen.append(src)
        _tree(out, "t0", value=(src / "value.txt").read_text())

    assert emit_outputs.against("HEAD", tmp_path / "same", emit_tree=stub,
                                repo=repo) == 0
    assert "3 files in both trees, 0 differences" in capsys.readouterr().out
    # REV came from a worktree outside the checkout, removed afterwards
    assert seen[1] == repo / "src" and not seen[0].is_relative_to(repo)
    assert not seen[0].exists()
    assert len(_git(repo, "worktree", "list").splitlines()) == 1

    # an uncommitted change in the checkout shows against HEAD
    (repo / "src" / "value.txt").write_text("1.5000000000000002")
    assert emit_outputs.against("HEAD", tmp_path / "changed", emit_tree=stub,
                                repo=repo) == 1
    assert "differs: flow_small/flow_margin.0/flow_margin-seed0.jsonl" \
        in capsys.readouterr().out
    assert len(_git(repo, "worktree", "list").splitlines()) == 1
