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


def _import_graph() -> dict[str, set[str]]:
    """Each module -> the dpviewsim modules it imports."""
    return {module: {name for name, _ in _intra_imports(tree)}
            for module, tree in _modules().items()}


def test_module_import_graph_is_acyclic():
    graph = _import_graph()
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


def test_a_cli_run_does_not_load_the_mechanisms_and_audit():
    # leakage holds the reference mechanisms and the transcript audit, which
    # the tests and the benchmark's gate call and no run does, so no module
    # that the CLI loads may import it.
    graph = _import_graph()
    closure, todo = set(), ["cli"]
    while todo:
        module = todo.pop()
        if module not in closure:
            closure.add(module)
            todo += graph[module]
    assert "harness" in closure and "leakage" not in closure


def test_only_randomness_imports_numpy():
    # numpy serves PCG64's raw words; every other module is plain Python.
    def imported(node: ast.AST) -> list[str]:
        if isinstance(node, ast.ImportFrom):
            return [node.module] if node.level == 0 else []
        return [alias.name for alias in node.names] if isinstance(node, ast.Import) else []

    assert {module for module, tree in _modules().items() for node in ast.walk(tree)
            if any(name.partition(".")[0] == "numpy" for name in imported(node))} == {"randomness"}


def _unread_parameters(tree: ast.Module, module: str) -> list[str]:
    """`module.py:line function: parameter` for every parameter of a function
    or lambda that its body never reads, except self, cls and _-prefixed ones."""
    unread = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        a = node.args
        params = [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs + [a.vararg, a.kwarg]
                  if p is not None]
        body = node.body if isinstance(node.body, list) else [node.body]
        read = {n.id for stmt in body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        name = getattr(node, "name", "<lambda>")
        unread += [f"{module}.py:{node.lineno} {name}: {p}" for p in params
                   if p not in read and p not in ("self", "cls") and not p.startswith("_")]
    return unread


def test_every_parameter_is_read():
    # A parameter that no body reads is a decision made in two places: the
    # caller computes a value that the callee has stopped using.
    unread = []
    for module, tree in _modules().items():
        unread += _unread_parameters(tree, module)
    assert unread == []
