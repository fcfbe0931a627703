"""README.md cites the package by name; every such name must exist.

A code span's dotted name whose head is a `marginflow` module, with or
without the `marginflow.` prefix (`gradflow.run_flow`,
`marginflow.cli.main`), must resolve by import and attribute lookup, a
dataclass field counting as an attribute. `perfbench/README.md` is not
read yet: it still cites names that have left the package (ROADMAP.md,
item 1).
"""

import importlib
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(p.stem for p in (ROOT / "src" / "marginflow").glob("*.py")
                 if p.stem != "__init__")
SPAN = re.compile(r"`([^`\n]+)`")
# `marginflow.<module>`, or a bare module name with an attribute; not
# part of a longer name or of a file name such as `...-rates.csv`
REF = re.compile(r"(?<![\w./-])(marginflow\.\w+|(?:" + "|".join(MODULES)
                 + r")(?=\.))((?:\.\w+)*)")


def _resolves(module: str, attrs: str) -> bool:
    obj = importlib.import_module(f"marginflow.{module}")
    for name in attrs.split(".")[1:]:
        if name in getattr(obj, "__dataclass_fields__", {}):
            return True
        if not hasattr(obj, name):
            return False
        obj = getattr(obj, name)
    return True


def stale_references(text: str) -> list[str]:
    """The dotted package names in text's code spans that do not resolve."""
    stale = []
    for span in SPAN.findall(text):
        for ref in REF.finditer(span):
            module = ref.group(1).removeprefix("marginflow.")
            if module not in MODULES or not _resolves(module, ref.group(2)):
                stale.append(ref.group(0))
    return stale


def test_readme_names_resolve():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    assert len(SPAN.findall(text)) > 100
    assert stale_references(text) == []


def test_a_planted_stale_name_is_found():
    # runner.kkt_report was removed once kkt-report became a view of run
    text = ("`runner.kkt_report(cfg, seed)`, `gradflow.run_flow`, "
            "`marginflow.losses.LossSpec.f_pair`, `marginflow.kkt.nope`, "
            "`marginflow.plots` and `runs/rates-seed0-rates.csv`")
    assert stale_references(text) == [
        "runner.kkt_report", "marginflow.kkt.nope", "marginflow.plots"]
