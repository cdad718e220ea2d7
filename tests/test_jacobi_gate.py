"""The Jacobi residual has one gate, and the circle relations one check site per path.

`jacobi_residual` may be called from `algebra.require_lie_algebra`, the gate
that classify, connection_coefficients and `liefol check` share, and from
`verifier.oracle_solve_theta`, which solves for theta from the residual
itself.  A call anywhere else in src/liefol is a second gate.  `build_family`
no longer shares the gate: its tables are Lie algebras by the polynomial
certificate in tests/test_family_jacobi_certificate.py.

`so2_failed_relation` may be called from `families.build_family`, the check
for every spec from outside the sweeps, and from `verifier._draw_params`, the
sampler that accepts each sweep draw; a third call site would check some draw
twice.
"""

import ast

import pytest

from test_options import SOURCES

ALLOWED = {
    "jacobi_residual": {("algebra", "require_lie_algebra"), ("verifier", "oracle_solve_theta")},
    "so2_failed_relation": {("families", "build_family"), ("verifier", "_draw_params")},
}


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


@pytest.mark.parametrize("callee", sorted(ALLOWED))
def test_callee_is_called_only_from_its_allowed_sites(callee):
    calls = [site for path in SOURCES for site in callers(path.read_text(encoding="utf-8"), path.stem, callee)]
    assert sorted(calls) == sorted(ALLOWED[callee])


def test_scan_finds_calls_in_functions_methods_and_module_code():
    source = (
        "def gate(t):\n    return jacobi_residual(t)\n"
        "class K:\n    def m(self, t):\n        return algebra.jacobi_residual(t)\n"
        "REPORT = jacobi_residual(None)\n"
        "def other(t):\n    return jacobi_residual\n"
    )
    assert callers(source, "mod", "jacobi_residual") == [("mod", "gate"), ("mod", "K"), ("mod", "<module>")]
