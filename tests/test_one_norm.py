"""One spectral norm for every check.

Every residual norm of ``src/lcm_dilate`` is ``algebras.operator_norms``,
one batched call per check, so a bound on a residual's norm has one home.
``gram.factorization`` takes its Hermitian residual's norm by
``eigvalsh`` instead, which the rules below allow.  In the syntax tree of
the package:

* ``np.linalg.svd`` is called only in ``operator_norms`` and in
  ``GeneratorAction._image_span``, which reads a rank, not a norm;
* ``np.linalg.norm`` gets no ``ord`` or ``axis`` argument, so it measures
  vector lengths only;
* no name ``operator_norm`` is left.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "lcm_dilate"
SVD_OWNERS = {"algebras.operator_norms", "systems.GeneratorAction._image_span"}


def _dotted(node: ast.AST) -> str:
    """``np.linalg.svd`` for that attribute chain, '' for anything else."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return ""
    return ".".join([node.id, *reversed(parts)])


def _calls(tree: ast.Module, module: str):
    """(qualified enclosing definition, call) for every call in ``tree``."""
    stack = [(tree, module)]
    while stack:
        node, where = stack.pop()
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                stack.append((child, f"{where}.{child.name}"))
                continue
            if isinstance(child, ast.Call):
                yield where, child
            stack.append((child, where))


def _trees() -> dict:
    return {path.stem: ast.parse(path.read_text(), filename=str(path))
            for path in sorted(PACKAGE.glob("*.py"))}


def test_svd_is_called_only_for_the_norms_and_one_rank():
    owners = {where for module, tree in _trees().items()
              for where, call in _calls(tree, module)
              if _dotted(call.func) == "np.linalg.svd"}
    assert owners == SVD_OWNERS


def test_linalg_norm_measures_vector_lengths_only():
    bad = [f"{where}:{call.lineno}" for module, tree in _trees().items()
           for where, call in _calls(tree, module)
           if _dotted(call.func) == "np.linalg.norm"
           and (len(call.args) > 1 or {k.arg for k in call.keywords} & {"ord", "axis"})]
    assert not bad, "np.linalg.norm with an ord or axis: " + ", ".join(bad)


def test_no_single_matrix_norm_is_left():
    names = set()
    for tree in _trees().values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name)
            elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names.add(node.name)
    assert "operator_norm" not in names
