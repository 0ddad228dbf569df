"""No library code without a caller.

Every top-level function, class and constant of ``src/lcm_dilate``, and
every method of its top-level classes, must be referenced by the library,
the experiment scripts or the perfbench harness somewhere outside its own
definition.  A reference is a name, an attribute or an import alias in the
syntax tree; strings and comments do not count, and neither does a
re-export from the package ``__init__``.  A method counts as reached when
any attribute of its name is, whatever the object: the syntax tree does not
know types.  Dunder methods are reached by the language itself.  Code only
the tests call belongs in the tests, as a reference implementation beside
them.
"""

import ast
import pathlib
from collections import Counter

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "lcm_dilate"
CALLER_DIRS = (PACKAGE, ROOT / "scripts", ROOT / "perfbench")


def _dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _definitions(tree: ast.Module) -> dict[str, ast.AST]:
    """Top-level functions, classes and assigned constants by name, and
    the methods of the classes as ``Class.method``."""
    out = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out[node.name] = node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name):
                    out[target.id] = node
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, ast.FunctionDef):
                    out[f"{node.name}.{member.name}"] = member
    return {name: node for name, node in out.items()
            if not _dunder(name.rpartition(".")[2])}


def _references(node: ast.AST, skip: frozenset = frozenset()) -> Counter:
    """Names, attribute names and import aliases under ``node``, counted,
    leaving out the subtrees whose ids are in ``skip``."""
    out: Counter = Counter()
    stack = [node]
    while stack:
        n = stack.pop()
        if id(n) in skip:
            continue
        if isinstance(n, ast.Name):
            out[n.id] += 1
        elif isinstance(n, ast.Attribute):
            out[n.attr] += 1
        elif isinstance(n, ast.alias):
            out[n.name] += 1
        stack.extend(ast.iter_child_nodes(n))
    return out


def uncalled_names() -> list[str]:
    """``module.name`` (or ``module.Class.method``) for every library
    definition nothing else names."""
    trees = {path: ast.parse(path.read_text(), filename=str(path))
             for folder in CALLER_DIRS for path in sorted(folder.glob("*.py"))}
    init = trees[PACKAGE / "__init__.py"]
    reexports = frozenset(id(node) for node in init.body
                          if isinstance(node, ast.ImportFrom))
    total: Counter = Counter()
    for tree in trees.values():
        total += _references(tree, reexports)
    missing = []
    for path, tree in trees.items():
        if path.parent != PACKAGE:
            continue
        for qualified, node in _definitions(tree).items():
            name = qualified.rpartition(".")[2]
            if total[name] - _references(node)[name] <= 0:
                missing.append(f"{path.stem}.{qualified}")
    return sorted(missing)


def test_every_library_name_has_a_caller():
    missing = uncalled_names()
    assert not missing, "reached only from the tests: " + ", ".join(missing)


def test_methods_are_in_scope():
    tree = ast.parse((PACKAGE / "algebras.py").read_text())
    defs = _definitions(tree)
    assert {"ToeplitzModel", "ToeplitzModel.children",
            "LevelledElement.refine_to"} <= set(defs)
    assert "ToeplitzModel.__eq__" not in defs
