"""The package's internal import graph, read from the source by the AST: the
line engine (umbilic.lines) imports numpy and umbilic.field alone, so every
other module may use it, and no module imports one that imports it back."""

import ast
from pathlib import Path

import umbilic

PACKAGE = Path(umbilic.__file__).parent


def imports(path: Path):
    """(external, internal) for one module: the top-level names of the
    modules it imports from outside the package (``__future__`` aside) and
    the package modules it imports, at any depth of its body."""
    external, internal = set(), set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            if node.level:  # .x, or "from . import x" of a module or of a name of __init__
                internal.update([node.module] if node.module else
                                [alias.name if (PACKAGE / f"{alias.name}.py").exists()
                                 else "__init__" for alias in node.names])
                continue
            names = [node.module]
        else:
            continue
        for name in names:
            top, _, rest = name.partition(".")
            if top == "umbilic":
                internal.add(rest.partition(".")[0] or "__init__")
            elif top != "__future__":
                external.add(top)
    return external, internal


def import_graph() -> dict:
    """Each module of the package, by its name, to the package modules it
    imports."""
    return {path.stem: imports(path)[1] for path in sorted(PACKAGE.glob("*.py"))}


def cycles(graph: dict) -> list:
    """The import cycles a depth-first walk of graph meets, each as the
    path of modules from the first one back to itself."""
    done, path, found = set(), [], []

    def visit(module):
        if module in path:
            found.append(path[path.index(module):] + [module])
        elif module not in done:
            path.append(module)
            for target in sorted(graph[module]):
                visit(target)
            path.pop()
            done.add(module)

    for module in sorted(graph):
        visit(module)
    return found


def test_lines_imports_numpy_and_field_alone():
    assert imports(PACKAGE / "lines.py") == ({"numpy"}, {"field"})


def test_internal_imports_have_no_cycle():
    graph = import_graph()
    assert {"lines", "field", "torussearch", "index"} <= graph.keys()
    assert all(target in graph for targets in graph.values() for target in targets)
    assert "lines" in graph["torussearch"]
    assert cycles(graph) == []
    # the check itself: index importing torussearch, which imports index
    graph["index"] = graph["index"] | {"torussearch"}
    assert ["index", "torussearch", "index"] in cycles(graph)
