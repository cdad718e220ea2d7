"""The sweeps draw integers in one place, so the pinned random stream has one statement.

Every sampled integer comes from `verifier._draw_pair`, which draws it from
`getrandbits` as `random.Random.randint` does.  A use of randint, randrange,
_randbelow or choice anywhere in src/liefol, or of getrandbits outside
`_draw_pair`, is a second drawing path whose stream the reports do not pin.
Within the library only the two samplers, `_draw_scalar` and `_draw_params`,
call `_draw_pair`, so the order of its calls is stated in one place.  Uses
are found by name or attribute, so binding a method to a local name before
calling it counts too.
"""

import ast

from test_options import SOURCES

DRAWING = {"randint", "randrange", "_randbelow", "choice", "getrandbits"}
ALLOWED = {("verifier", "_draw_pair", "getrandbits")}
PAIR_CALLERS = {("verifier", "_draw_scalar", "_draw_pair"), ("verifier", "_draw_params", "_draw_pair")}


def draws(source: str, module: str, names=DRAWING) -> set[tuple[str, str, str]]:
    """(module, enclosing top-level function or class, name) of each use of one of names, drawing methods by default."""
    found = set()
    for node in ast.parse(source).body:
        for sub in ast.walk(node):
            name = sub.id if isinstance(sub, ast.Name) else getattr(sub, "attr", None)
            if name in names:
                found.add((module, getattr(node, "name", "<module>"), name))
    return found


def test_getrandbits_is_used_only_by_draw_pair():
    uses = set().union(*(draws(path.read_text(encoding="utf-8"), path.stem) for path in SOURCES))
    assert uses == ALLOWED


def test_draw_pair_is_called_only_by_the_samplers():
    uses = set().union(*(draws(path.read_text(encoding="utf-8"), path.stem, {"_draw_pair"}) for path in SOURCES))
    assert uses == PAIR_CALLERS


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
