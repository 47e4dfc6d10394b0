"""Package import structure: no function-level imports, no cycles."""

import ast
from pathlib import Path

import dpviewsim

PACKAGE = Path(dpviewsim.__file__).parent


def _intra_imports(tree: ast.Module) -> list[tuple[str, ast.AST]]:
    """(imported module, node) for every import of a dpviewsim module."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level == 1:
                base = node.module
            elif node.level == 0 and (node.module or "").startswith("dpviewsim"):
                base = node.module.partition(".")[2] or None
            else:
                continue
            if base is None:  # from . import x, y
                found += [(alias.name, node) for alias in node.names]
            else:
                found.append((base.partition(".")[0], node))
        elif isinstance(node, ast.Import):
            found += [(alias.name.split(".")[1], node) for alias in node.names
                      if alias.name.startswith("dpviewsim.")]
    return found


def _modules() -> dict[str, ast.Module]:
    return {path.stem: ast.parse(path.read_text(), str(path))
            for path in sorted(PACKAGE.glob("*.py"))}


def test_intra_package_imports_are_at_module_level():
    nested = []
    for module, tree in _modules().items():
        top = set(map(id, tree.body))
        nested += [f"{module}.py:{node.lineno} imports {name}"
                   for name, node in _intra_imports(tree) if id(node) not in top]
    assert nested == []


def test_module_import_graph_is_acyclic():
    graph = {module: {name for name, _ in _intra_imports(tree)}
             for module, tree in _modules().items()}
    assert all(name in graph for deps in graph.values() for name in deps)
    done: set[str] = set()

    def visit(module: str, path: list[str]) -> None:
        if module in path:
            raise AssertionError("import cycle: " + " -> ".join(path + [module]))
        if module not in done:
            for dep in sorted(graph[module]):
                visit(dep, path + [module])
            done.add(module)

    for module in graph:
        visit(module, [])
