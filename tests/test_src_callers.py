"""Code with no caller is deleted.

Every public function, class and method under src/marginflow/ must be
referenced somewhere in src/ outside its own definition. A function or
class counts any name or attribute that spells it; a method or property
counts only an attribute, since a same-named variable or parameter
does not reach it. An import alone does not count, and neither do
tests: helpers that only tests call belong in tests/oracles.py.
"""

import ast
from collections import defaultdict
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "marginflow"


def test_every_public_definition_has_a_caller_in_src():
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py"))}
    names, attrs = defaultdict(list), defaultdict(list)
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names[node.id].append(node)
            elif isinstance(node, ast.Attribute):
                attrs[node.attr].append(node)
    uncalled = []
    for module, tree in trees.items():
        methods = {id(node) for cls in ast.walk(tree)
                   if isinstance(cls, ast.ClassDef) for node in cls.body}
        for node in ast.walk(tree):
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")):
                refs = attrs[node.name]
                if id(node) not in methods:
                    refs = refs + names[node.name]
                inside = {id(n) for n in ast.walk(node)}
                if all(id(ref) in inside for ref in refs):
                    uncalled.append(f"{module}: {node.name}")
    assert uncalled == []
