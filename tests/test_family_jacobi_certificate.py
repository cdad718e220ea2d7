"""Every family table satisfies the Jacobi identity, for every parameter value the constructors accept.

`build_family` runs no Jacobi check: its tables are Lie algebras by
construction, and this module proves it once, as a polynomial identity.  Every
parameter of `family_parameter_names(family)` (theta4 included, which
`closed_form_theta` passes through) becomes a variable of the test-side ring
`polynomials.Poly`, and the library's ring-generic `closed_form_theta` and
`families._family_rows` build the table of all members at once.  A test-side
triple loop gives its Jacobi residual

    J(i, j, k) = [[e_i, e_j], e_k] + [[e_j, e_k], e_i] + [[e_k, e_i], e_j],

a vector of polynomials per triple i < j < k (the loop is tied to
`jacobi_residual` at rational points below).

su2, sl2r, su2 x su2, su2 x sl2r: every component is the zero polynomial, so
every parameter value gives a Lie algebra.

su2 x so2, sl2r x so2 (basis A, B, C, T, X, Y = e0..e5, block sign sigma = +1
resp. -1): J vanishes on every triple except (T, X, Y).  With the three
Jacobi relations that `so2_failed_relation` checks,

    R3 = t14*x2 + rho*y2 - t24*x1,
    R4 = t14*y2 - (rho + t24)*y1,
    R5 = (x1 + y2)*theta4 - rho*t14,

the components of J(T, X, Y) are

    e0: -(c12*R3 + c22*R4)/2       e3: R5
    e1: sigma*(c11*R3 + c21*R4)/2  e4: R3
    e2: -sigma*(b11*R3 + b21*R4)/2 e5: R4

that is, e0..e2 are the A, B, C coefficients of the [T, h] rows with (u, v)
replaced by (R3, R4).  Each component lies in the ideal (R3, R4, R5) with
multipliers of degree <= 1 (ideal membership: Cox, Little and O'Shea, "Ideals,
Varieties, and Algorithms", ch. 2), so J = 0 wherever R3 = R4 = R5 = 0: for
both eps_X*eps_Y classes, without the two conformality relations, with no
case split and no denominator to clear.  `build_family` refuses every circle
spec on which `so2_failed_relation` names a failed relation, and that
function reports R3, R4 and R5 themselves (checked below), so every table it
returns is a Lie algebra.

The certificate fails on each of three mutants, each tested: theta with its
sign flipped, one entry of a circle [T, X] row with its sign flipped, and one
side of one relation in `so2_failed_relation` changed.
"""

from __future__ import annotations

import inspect
import random
from fractions import Fraction
from types import SimpleNamespace

import pytest

from liefol import families
from liefol.algebra import StructureTensor, jacobi_residual
from liefol.families import (
    CIRCLE_FAMILIES,
    FamilyId,
    closed_form_theta,
    family_dimension,
    family_parameter_names,
    so2_failed_relation,
)
from polynomials import Poly

F = Fraction
HALF = F(1, 2)
V = Poly.variable

R3 = V("t14") * V("x2") + V("rho") * V("y2") - V("t24") * V("x1")
R4 = V("t14") * V("y2") - (V("rho") + V("t24")) * V("y1")
R5 = (V("x1") + V("y2")) * V("theta4") - V("rho") * V("t14")
# The names so2_failed_relation gives R3, R4 and R5.
RELATIONS = (
    ("t14*x2 + rho*y2 - t24*x1 = 0", R3),
    ("t14*y2 - (rho + t24)*y1 = 0", R4),
    ("(x1 + y2)*theta4 = rho*t14", R5),
)
CIRCLE_TRIPLE = (3, 4, 5)  # (T, X, Y)


def generic_rows(family: FamilyId, flip_theta: bool = False) -> dict:
    """The family's rows with every parameter a variable; theta negated if flip_theta."""
    params = {name: V(name) for name in family_parameter_names(family)}
    theta = closed_form_theta(SimpleNamespace(family=family, params=params))
    if flip_theta:
        theta = tuple(-t for t in theta)
    return families._family_rows(family, params, theta)


def residual(dim: int, rows: dict) -> dict:
    """{(i, j, k): components} of the Jacobi residual, nonzero triples only; any ring's entries."""
    zero = F(0)
    c = [[(zero,) * dim for _ in range(dim)] for _ in range(dim)]
    for (i, j), row in rows.items():
        c[i][j] = tuple(row)
        c[j][i] = tuple(-v for v in row)
    out = {}
    for i in range(dim):
        for j in range(i + 1, dim):
            for k in range(j + 1, dim):
                res = [zero] * dim
                for u, e in ((c[i][j], k), (c[j][k], i), (c[k][i], j)):
                    for m, um in enumerate(u):
                        if um:
                            for t, cmet in enumerate(c[m][e]):
                                if cmet:
                                    res[t] = res[t] + um * cmet
                if any(res):
                    out[(i, j, k)] = res
    return out


def circle_multipliers(sigma: int) -> tuple:
    """(a, b, g) per component e0..e5 of J(T, X, Y) = a*R3 + b*R4 + g*R5 (module docstring)."""
    return (
        (-HALF * V("c12"), -HALF * V("c22"), 0),
        (sigma * HALF * V("c11"), sigma * HALF * V("c21"), 0),
        (-sigma * HALF * V("b11"), -sigma * HALF * V("b21"), 0),
        (0, 0, 1),
        (1, 0, 0),
        (0, 1, 0),
    )


def certificate_failures(family: FamilyId, rows: dict) -> list[str]:
    """Why rows are not proved Jacobi for every accepted parameter value; empty when they are."""
    found = residual(family_dimension(family), rows)
    if family not in CIRCLE_FAMILIES:
        return [f"J{triple} = {components}" for triple, components in found.items()]
    failures = [f"J{triple} = {components}" for triple, components in found.items() if triple != CIRCLE_TRIPLE]
    components = found.get(CIRCLE_TRIPLE, [0] * 6)
    sigma = families._BLOCKS[family][0][0]
    for t, (component, (a, b, g)) in enumerate(zip(components, circle_multipliers(sigma))):
        if component != a * R3 + b * R4 + g * R5:
            failures.append(f"J{CIRCLE_TRIPLE}_e{t} = {component} is not {a}*R3 + {b}*R4 + {g}*R5")
    return failures


def relation_points(seed: str, count: int):
    """(eps_X, eps_Y, point) on the conformal locus x1 = y2, eps_X*x2 + eps_Y*y1 = 0, zero-heavy values."""
    rng = random.Random(seed)
    values = (F(0),) * 4 + (F(1), F(-1), F(2), F(-1, 2), F(3, 2))
    for eps_x, eps_y in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
        for _ in range(count):
            point = {name: rng.choice(values) for name in ("x1", "y1", "rho", "t14", "t24", "theta4")}
            point["y2"] = point["x1"]
            point["x2"] = -eps_x * eps_y * point["y1"]
            yield eps_x, eps_y, point


def relation_tie_failures(failed_relation) -> list[str]:
    """Where failed_relation does not report the one failing R3-R5, with its value, or None when all hold.

    Each of R3, R4 and R5 must be the only failing relation at some point of
    each eps_X*eps_Y class.
    """
    failures = []
    alone = set()
    for eps_x, eps_y, point in relation_points("so2-relations", 300):
        failing = [(name, relation(point)) for name, relation in RELATIONS if relation(point)]
        if len(failing) > 1:
            continue
        expected = failing[0] if failing else None
        got = failed_relation(point, eps_x, eps_y)
        if got != expected:
            failures.append(f"eps ({eps_x}, {eps_y}) at {point}: got {got}, expected {expected}")
        if failing:
            alone.add((eps_x * eps_y, failing[0][0]))
    for eps_class in (1, -1):
        for name, _ in RELATIONS:
            if (eps_class, name) not in alone:
                failures.append(f"no point where only {name} fails for eps_X*eps_Y = {eps_class}")
    return failures


class TestCertificate:
    @pytest.mark.parametrize("family", list(FamilyId))
    def test_every_family_table_is_a_lie_algebra(self, family):
        # For the semisimple families: every residual component is the zero polynomial.
        assert certificate_failures(family, generic_rows(family)) == []

    @pytest.mark.parametrize("family", sorted(CIRCLE_FAMILIES))
    def test_circle_residual_is_nonzero_only_on_t_x_y(self, family):
        found = residual(family_dimension(family), generic_rows(family))
        assert list(found) == [CIRCLE_TRIPLE]
        # Component e4 is R3 itself: the residual is not zero, only in the ideal.
        assert found[CIRCLE_TRIPLE][4] == R3

    def test_so2_failed_relation_reports_r3_r4_r5(self):
        assert relation_tie_failures(so2_failed_relation) == []

    @pytest.mark.parametrize("family", list(FamilyId))
    def test_residual_loop_matches_jacobi_residual(self, family):
        # The test-side loop and the library's residual agree at rational points
        # where the residual is nonzero: theta flipped, circle relations unmet.
        rng = random.Random(f"certificate-{family.value}")
        dim = family_dimension(family)
        generic = residual(dim, generic_rows(family, flip_theta=True))
        nonzero = (-3, -2, -1, 1, 2, 3)
        for _ in range(3):
            point = {name: F(rng.choice(nonzero), rng.randint(1, 3)) for name in family_parameter_names(family)}
            theta = tuple(-t for t in closed_form_theta(SimpleNamespace(family=family, params=point)))
            report = jacobi_residual(StructureTensor.from_rows(dim, families._family_rows(family, point, theta)))
            evaluated = {
                triple: tuple(v(point) if isinstance(v, Poly) else v for v in components)
                for triple, components in generic.items()
            }
            assert report.violations == tuple((t, c) for t, c in sorted(evaluated.items()) if any(c))
            assert report.violations


class TestMutantsFailTheCertificate:
    @pytest.mark.parametrize("family", list(FamilyId))
    def test_theta_sign_flipped(self, family):
        assert certificate_failures(family, generic_rows(family, flip_theta=True))

    @pytest.mark.parametrize("family", sorted(CIRCLE_FAMILIES))
    @pytest.mark.parametrize("entry", range(6), ids=["A", "B", "C", "T", "X", "Y"])
    def test_one_t_x_row_entry_sign_flipped(self, family, entry):
        rows = generic_rows(family)
        row = rows[(3, 4)]
        assert row[entry]
        row[entry] = -row[entry]
        assert certificate_failures(family, rows)

    @pytest.mark.parametrize(
        "side, mutant",
        [
            ("t24 * x1", "t14 * x1"),
            ("(rho + t24) * y1", "(rho - t24) * y1"),
            ("rho * t14", "rho * t24"),
        ],
        ids=["R3", "R4", "R5"],
    )
    def test_one_relation_side_changed(self, side, mutant):
        source = inspect.getsource(families.so2_failed_relation)
        assert source.count(side) == 1
        namespace = dict(vars(families))
        source = "from __future__ import annotations\n" + source.replace(side, mutant)
        exec(compile(source, "<mutant>", "exec"), namespace)
        assert relation_tie_failures(namespace["so2_failed_relation"])
