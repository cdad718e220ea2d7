"""Every public function, method and record field of liefol is used by the program itself.

A public name that only tests reach is a convenience kept in the library, and
a record field that only tests read is a value every caller pays to build.
The program's own callers are src/liefol and the benchmark under bench/, as in
test_options.  The one exception is build_so2_raw_setup: the A5 acceptance
test needs the raw circle ansatz from the library.

Both scans match by name: a field passes when any attribute of that name is
read anywhere, so a field named like another object's attribute cannot be told
apart from it (JacobiReport.dim, never read, passed because tensor.dim is).
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


def public_fields(source: str):
    """(qualified name, name) per public field of a public dataclass or NamedTuple."""
    for node in ast.parse(source).body:
        if not isinstance(node, ast.ClassDef) or node.name.startswith("_"):
            continue
        decorators = [d.func if isinstance(d, ast.Call) else d for d in node.decorator_list]
        record = any(isinstance(d, ast.Name) and d.id == "dataclass" for d in decorators) or any(
            isinstance(base, ast.Name) and base.id == "NamedTuple" for base in node.bases
        )
        if record:
            for item in node.body:
                if isinstance(item, ast.AnnAssign) and not item.target.id.startswith("_"):
                    yield f"{node.name}.{item.target.id}", item.target.id


def references(sources) -> tuple[set, set]:
    """The names read (ast.Name) and the attributes read (ast.Attribute, not assigned) anywhere in the sources.

    Import lines hold aliases and __all__ holds strings, so neither counts.
    """
    names, attributes = set(), set()
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
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


def unread_fields(sources, callers) -> list[str]:
    """Public record fields that no caller reads as an attribute."""
    _, attributes = references(callers)
    return [qualified for source in sources for qualified, name in public_fields(source) if name not in attributes]


def test_every_public_name_is_used_by_the_program():
    callers = [path.read_text(encoding="utf-8") for path in CALLERS]
    sources = [path.read_text(encoding="utf-8") for path in SOURCES]
    assert unreferenced(sources, callers) == []


def test_every_record_field_is_read_by_the_program():
    callers = [path.read_text(encoding="utf-8") for path in CALLERS]
    sources = [path.read_text(encoding="utf-8") for path in SOURCES]
    assert unread_fields(sources, callers) == []


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


def test_scan_finds_fields_only_tests_read():
    source = (
        "@dataclass(frozen=True)\nclass D:\n    read: int\n    unread: int\n    stored: int\n    _private: int\n"
        "    def m(self): return self.read\n"
        "@dataclass\nclass E:\n    plain: int\n"
        "class N(NamedTuple):\n    first: int\n    second: int\n"
        "class Plain:\n    annotated: int\n"
        "@dataclass\nclass _Hidden:\n    hidden: int\n"
    )
    caller = "d.stored = 1\nprint(n.first, 'second', unread)\n"
    assert unread_fields([source], [source, caller]) == ["D.unread", "D.stored", "E.plain", "N.second"]
