"""The sweeps draw integers in one place, so the pinned random stream has one statement.

Every sampled integer comes from `verifier._draw_pair`, which draws it from
`getrandbits` as `random.Random.randint` does.  A use of randint, randrange,
_randbelow or choice anywhere in src/liefol, or of getrandbits outside
`_draw_pair`, is a second drawing path whose stream the reports do not pin.
Uses are found by name or attribute, so binding a method to a local name
before calling it counts too.
"""

import ast

from test_options import SOURCES

DRAWING = {"randint", "randrange", "_randbelow", "choice", "getrandbits"}
ALLOWED = {("verifier", "_draw_pair", "getrandbits")}


def draws(source: str, module: str) -> set[tuple[str, str, str]]:
    """(module, enclosing top-level function or class, method) of each use of a drawing method."""
    found = set()
    for node in ast.parse(source).body:
        for sub in ast.walk(node):
            name = sub.id if isinstance(sub, ast.Name) else getattr(sub, "attr", None)
            if name in DRAWING:
                found.add((module, getattr(node, "name", "<module>"), name))
    return found


def test_getrandbits_is_used_only_by_draw_pair():
    uses = set().union(*(draws(path.read_text(encoding="utf-8"), path.stem) for path in SOURCES))
    assert uses == ALLOWED


def test_scan_finds_calls_and_bound_methods_in_functions_methods_and_module_code():
    source = (
        "def pair(rng):\n    bits = rng.getrandbits\n    return bits(3)\n"
        "class K:\n    def m(self, rng):\n        return random.randint(1, 2)\n"
        "PICK = choice((1, -1))\n"
        "def other(rng):\n    return rng.random()\n"
    )
    assert draws(source, "mod") == {
        ("mod", "pair", "getrandbits"),
        ("mod", "K", "randint"),
        ("mod", "<module>", "choice"),
    }
