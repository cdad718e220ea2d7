"""Every imported name is used in every Python file of the repo: the project's lint, run with the tests."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(
    [
        *ROOT.joinpath("src", "liefol").glob("*.py"),
        *ROOT.joinpath("tests").glob("*.py"),
        *ROOT.joinpath("bench").glob("*.py"),
    ]
)


def unused_imports(source: str) -> list[str]:
    """Names a module imports and never reads; names listed in __all__ count as read."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: f"{path.parent.name}/{path.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_scan_finds_unused_names():
    source = (
        "import os\nimport json as js\nfrom x import a, b as c\nfrom y import d\n"
        "__all__ = ['d']\nprint(a)\n"
    )
    assert unused_imports(source) == ["line 1: os", "line 2: js", "line 3: c"]
