"""scripts/emit_outputs.py --compare: what it ignores and what it flags."""

import importlib.util
import json
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
