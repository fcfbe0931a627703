"""Code with no caller is deleted, down to the keyword.

Every public function, class and method under src/marginflow/ must be
referenced somewhere in src/ outside its own definition. A function or
class counts any name or attribute that spells it; a method or property
counts only an attribute, since a same-named variable or parameter
does not reach it. An import alone does not count, and neither do
tests: helpers that only tests call belong in tests/oracles.py.

Likewise every defaulted parameter of a public function or method must
be passed by some call in src/ that spells the function's name: a value
only tests choose is a module constant, which a test monkeypatches.
"""

import ast
from collections import defaultdict
from pathlib import Path

from marginflow.datasets import KINDS
from marginflow.models import FAMILIES

SRC = Path(__file__).resolve().parents[1] / "src" / "marginflow"


def _trees() -> dict:
    return {path.name: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(SRC.glob("*.py"))}


def _methods(tree) -> set:
    return {id(node) for cls in ast.walk(tree)
            if isinstance(cls, ast.ClassDef) for node in cls.body}


def test_every_public_definition_has_a_caller_in_src():
    trees = _trees()
    names, attrs = defaultdict(list), defaultdict(list)
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names[node.id].append(node)
            elif isinstance(node, ast.Attribute):
                attrs[node.attr].append(node)
    uncalled = []
    for module, tree in trees.items():
        methods = _methods(tree)
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


def test_every_defaulted_parameter_is_passed_by_a_call_in_src():
    # a call passes the parameters its positional arguments reach (after
    # a method's self) and those it names; one with *args or **kwargs
    # passes them all. A method counts only attribute calls (obj.name),
    # a function only bare calls (name) and calls on its own module
    # (module.name). Exempt: the config-section builders, whose
    # parameters are config keys that runner._section reads from their
    # signatures, and cli.main, whose argv comes from outside src/.
    exempt = {(f.__module__.rsplit(".", 1)[1] + ".py", f.__name__)
              for f in (*FAMILIES.values(), *KINDS.values())}
    exempt.add(("cli.py", "main"))
    trees = _trees()
    bare, dotted = defaultdict(list), defaultdict(list)
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                if isinstance(node.func, ast.Name):
                    bare[node.func.id].append(node)
                elif isinstance(node.func, ast.Attribute):
                    dotted[node.func.attr].append(node)
    unpassed = []
    for module, tree in trees.items():
        methods = _methods(tree)
        for node in ast.walk(tree):
            if (not isinstance(node, ast.FunctionDef)
                    or node.name.startswith("_")
                    or (module, node.name) in exempt):
                continue
            args = node.args
            positional = [a.arg for a in args.posonlyargs + args.args]
            defaulted = positional[len(positional) - len(args.defaults):]
            defaulted += [a.arg for a, d in zip(args.kwonlyargs,
                                                args.kw_defaults)
                          if d is not None]
            if id(node) in methods:
                calls = dotted[node.name]
                if not any(getattr(d, "id", None) == "staticmethod"
                           for d in node.decorator_list):
                    positional = positional[1:]
            else:
                calls = bare[node.name] + [
                    c for c in dotted[node.name]
                    if getattr(c.func.value, "id", None) == module[:-3]]
            passed = set()
            for call in calls:
                if (any(isinstance(a, ast.Starred) for a in call.args)
                        or any(k.arg is None for k in call.keywords)):
                    passed.update(defaulted)
                passed.update(positional[:len(call.args)])
                passed.update(k.arg for k in call.keywords)
            missing = [p for p in defaulted if p not in passed]
            if missing:
                unpassed.append(f"{module}: {node.name}({', '.join(missing)})")
    assert unpassed == []
