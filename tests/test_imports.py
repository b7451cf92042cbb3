"""The module-level imports of ``src/mlenn``.

Every name that a module-level import binds is used: a name counts as
used when the module reads it (a load of the name, in code or in an
annotation) or lists it in its ``__all__``. Deleting code then cannot leave
an import behind that nothing reads.

The modules from outside the package that ``import mlenn`` loads are
pinned, since every command pays for them before it starts its work.

Every public name is read by the package itself, so no public API exists
only for the tests.
"""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "mlenn"

# (module, name) pairs imported for code outside the package.
KEPT = {
    ("pipeline", "pca_fit"),  # perfbench/tracer.py wraps mlenn.pipeline.pca_fit
}

# The top-level modules outside the package that src/mlenn imports at
# module level. A new one lands here, and in CHANGES.md, on purpose.
EXTERNAL = {"__future__", "argparse", "contextlib", "dataclasses", "json", "math", "numpy",
            "os", "sys", "warnings"}


def _imported_names(tree: ast.Module) -> list:
    names = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            names += [(alias.asname or alias.name).split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names += [alias.asname or alias.name for alias in node.names]
    return names


def _exported(tree: ast.Module) -> set:
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            return set(ast.literal_eval(node.value))
    return set()


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_module_level_import_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    used = read | _exported(tree) | {name for module, name in KEPT if module == path.stem}
    unused = [name for name in _imported_names(tree) if name not in used]
    assert unused == [], f"{path.name} imports {unused} and never reads them"


def test_kept_imports_are_still_unread():
    # An exception that the module has come to read is no longer needed.
    for module, name in KEPT:
        tree = ast.parse((SRC / f"{module}.py").read_text(encoding="utf-8"))
        assert name in _imported_names(tree)
        assert not any(isinstance(node, ast.Name) and node.id == name
                       for node in ast.walk(tree)), (module, name)


def _module_level(node):
    """The nodes that run when the module is imported: everything outside
    function bodies and lambdas."""
    for child in ast.iter_child_nodes(node):
        if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            yield child
            yield from _module_level(child)


def test_external_module_level_imports_are_pinned():
    imported = set()
    for path in SRC.glob("*.py"):
        for node in _module_level(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                imported |= {alias.name.split(".")[0] for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    assert imported == EXTERNAL


def test_every_public_name_is_read_by_the_package():
    exported = _exported(ast.parse((SRC / "__init__.py").read_text(encoding="utf-8")))
    read = set()
    for path in SRC.glob("*.py"):
        if path.name != "__init__.py":
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    read.add(node.id)
                elif isinstance(node, ast.Attribute):
                    read.add(node.attr)
    unread = sorted(exported - read - {"__version__"})
    assert unread == [], f"mlenn.__all__ lists {unread}, which no module of the package reads"
