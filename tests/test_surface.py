"""Every public function and method of liefol is used by the program itself.

A public name that only tests reach is a convenience kept in the library.  The
program's own callers are src/liefol and the benchmark under bench/, as in
test_options.  The one exception is build_so2_raw_setup: the A5 acceptance
test needs the raw circle ansatz from the library.
"""

import ast

from test_options import CALLERS, SOURCES

EXCEPTIONS = {"build_so2_raw_setup"}


def public_definitions(source: str):
    """(qualified name, name, is a method) per public function and public method of a public class."""
    for node in ast.parse(source).body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            yield node.name, node.name, False
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item.name, True


def references(sources) -> tuple[set, set]:
    """The names read (ast.Name) and the attributes read (ast.Attribute) anywhere in the sources.

    Import lines hold aliases and __all__ holds strings, so neither counts.
    """
    names, attributes = set(), set()
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
    return names, attributes


def unreferenced(sources, callers) -> list[str]:
    """Public functions no caller names or reaches as an attribute, and public methods no caller reaches as one."""
    names, attributes = references(callers)
    return [
        qualified
        for source in sources
        for qualified, name, method in public_definitions(source)
        if name not in EXCEPTIONS and name not in attributes and (method or name not in names)
    ]


def test_every_public_name_is_used_by_the_program():
    callers = [path.read_text(encoding="utf-8") for path in CALLERS]
    sources = [path.read_text(encoding="utf-8") for path in SOURCES]
    assert unreferenced(sources, callers) == []


def test_scan_finds_names_only_tests_reach():
    source = (
        "def called(): pass\ndef via_module(): pass\ndef unused(): pass\ndef exported(): pass\n"
        "def _private(): pass\ndef build_so2_raw_setup(): pass\n"
        "class K:\n    def __init__(self): pass\n    def m(self): pass\n    def local(self): pass\n"
        "    def n(self): pass\n    def _p(self): pass\n"
        "class _Hidden:\n    def h(self): pass\n"
    )
    caller = (
        "from lib import unused, exported\n__all__ = ['exported', 'n']\n"
        "called()\nlib.via_module()\nk.m()\nlocal = 1\nprint(local)\n"
    )
    assert unreferenced([source], [caller]) == ["unused", "exported", "K.local", "K.n"]
