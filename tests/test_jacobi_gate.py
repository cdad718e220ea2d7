"""The Jacobi residual has one gate: every verdict's Lie-algebra check goes through it.

`jacobi_residual` may be called from `algebra.require_lie_algebra`, the gate
that classify, connection_coefficients, build_family and `liefol check` share,
and from `verifier.oracle_solve_theta`, which solves for theta from the
residual itself.  A call anywhere else in src/liefol is a second gate.
"""

import ast

from test_options import SOURCES

ALLOWED = {("algebra", "require_lie_algebra"), ("verifier", "oracle_solve_theta")}


def callers(source: str, module: str, callee: str) -> list[tuple[str, str]]:
    """(module, enclosing top-level function or class) of each call to callee, by name or attribute."""
    found = []
    for node in ast.parse(source).body:
        for call in ast.walk(node):
            if isinstance(call, ast.Call):
                func = call.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name == callee:
                    found.append((module, getattr(node, "name", "<module>")))
    return found


def test_jacobi_residual_is_called_only_by_the_gate_and_the_theta_oracle():
    calls = [
        site
        for path in SOURCES
        for site in callers(path.read_text(encoding="utf-8"), path.stem, "jacobi_residual")
    ]
    assert sorted(calls) == sorted(ALLOWED)


def test_scan_finds_calls_in_functions_methods_and_module_code():
    source = (
        "def gate(t):\n    return jacobi_residual(t)\n"
        "class K:\n    def m(self, t):\n        return algebra.jacobi_residual(t)\n"
        "REPORT = jacobi_residual(None)\n"
        "def other(t):\n    return jacobi_residual\n"
    )
    assert callers(source, "mod", "jacobi_residual") == [("mod", "gate"), ("mod", "K"), ("mod", "<module>")]
