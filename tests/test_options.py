"""Every optional parameter of the public API is used by the program itself.

An option that only tests set is a second code path kept for convenience; the
program's own callers are src/liefol and the benchmark under bench/.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(ROOT.joinpath("src", "liefol").glob("*.py"))
CALLERS = SOURCES + sorted(ROOT.joinpath("bench").rglob("*.py"))


def _options(function: ast.FunctionDef, method: bool):
    """(name, position in a call) of each parameter with a default; keyword-only ones have no position."""
    args = function.args
    positional = [*args.posonlyargs, *args.args]
    static = any(isinstance(d, ast.Name) and d.id == "staticmethod" for d in function.decorator_list)
    bound = 1 if method and not static else 0  # self or cls is not written in the call
    first = len(positional) - len(args.defaults)
    for index in range(first, len(positional)):
        yield positional[index].arg, index - bound
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            yield arg.arg, None


def public_options(source: str):
    """(function, parameter, position) per defaulted parameter of a public function or method."""
    for node in ast.parse(source).body:
        if isinstance(node, ast.FunctionDef):
            members = [(node, False)]
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            members = [(item, True) for item in node.body if isinstance(item, ast.FunctionDef)]
        else:
            continue
        for function, method in members:
            if not function.name.startswith("_"):
                for name, position in _options(function, method):
                    yield function.name, name, position


def passed_arguments(sources) -> set:
    """(callee name, keyword or position) of every argument some call passes; "*" for unpacking."""
    passed = set()
    for source in sources:
        for call in ast.walk(ast.parse(source)):
            if not isinstance(call, ast.Call):
                continue
            func = call.func
            callee = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            for keyword in call.keywords:
                passed.add((callee, keyword.arg or "*"))
            for position, arg in enumerate(call.args):
                passed.add((callee, "*" if isinstance(arg, ast.Starred) else position))
    return passed


def unused_options(sources, callers) -> list[str]:
    passed = passed_arguments(callers)
    return [
        f"{function}({name})"
        for source in sources
        for function, name, position in public_options(source)
        if not {(function, name), (function, position), (function, "*")} & passed
    ]


def test_every_option_is_passed_by_the_program():
    callers = [path.read_text(encoding="utf-8") for path in CALLERS]
    sources = [path.read_text(encoding="utf-8") for path in SOURCES]
    assert unused_options(sources, callers) == []


def test_scan_finds_options_only_tests_set():
    source = (
        "def f(a, b=1, *, c=None, d=2):\n    pass\n"
        "def _private(x=1):\n    pass\n"
        "class K:\n    def m(self, p=0, q=0):\n        pass\n"
        "    @staticmethod\n    def s(r=0):\n        pass\n"
    )
    caller = "f(0, 5)\nf(0, d=3)\nk.m(1)\nK.s(*args)\n"
    assert unused_options([source], [caller]) == ["f(c)", "m(q)"]
