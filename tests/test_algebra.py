"""Bracket tables, Jacobi residuals, Killing forms."""

import functools
import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liefol.algebra import (
    ConstraintError,
    FoliationSetup,
    JacobiError,
    MetricFrame,
    StructureError,
    StructureTensor,
    as_scalar,
    format_scalar,
    jacobi_residual,
    killing_form,
    require_lie_algebra,
)
from liefol.families import (
    FamilyId,
    FamilySpec,
    assemble_family_table,
    build_family,
    closed_form_theta,
    family_parameter_names,
)
from liefol.geometry import FrameFreeHorizontal, connection_coefficients
from liefol.linalg import determinant
from test_families import theta_table

F = Fraction


def bracket(tensor: StructureTensor, u, v) -> tuple[Fraction, ...]:
    """The bilinear bracket [u, v] = sum_ij u_i v_j [e_i, e_j], the tests' reference bracket."""
    out = [F(0)] * tensor.dim
    for i, ui in enumerate(u):
        for j, vj in enumerate(v):
            if ui and vj:
                for k, cijk in enumerate(tensor.c[i][j]):
                    if cijk:
                        out[k] += ui * vj * cijk
    return tuple(out)


def su2_tensor() -> StructureTensor:
    # [A,B] = 2C, [C,A] = 2B, [B,C] = 2A
    return StructureTensor.from_rows(
        3, {(0, 1): [0, 0, 2], (0, 2): [0, -2, 0], (1, 2): [2, 0, 0]}
    )


def sl2r_tensor() -> StructureTensor:
    return StructureTensor.from_rows(
        3, {(0, 1): [0, 0, 2], (0, 2): [0, -2, 0], (1, 2): [-2, 0, 0]}
    )


class TestScalar:
    def test_string_forms(self):
        assert as_scalar("3/4") == F(3, 4)
        assert as_scalar("-2") == F(-2)
        assert as_scalar(F(1, 3)) == F(1, 3)
        assert as_scalar(5) == F(5)

    @pytest.mark.parametrize("literal", ["9" * 5000, "1/" + "9" * 5000, "-" + "1" * 4400 + "/3"])
    def test_rejects_literals_longer_than_int_conversion_allows(self, literal):
        with pytest.raises(StructureError, match="not an exact rational literal"):
            as_scalar(literal)
        assert as_scalar("9" * 4000) == 10**4000 - 1

    @pytest.mark.parametrize("bad", ["0.5", "1e3", "abc", "1/0", "1_000", "\u0663", None, True])
    def test_rejects_non_rationals(self, bad):
        with pytest.raises(StructureError):
            as_scalar(bad)

    def test_rejects_floats(self):
        for value in (0.5, 0.3333333, 2.0):
            with pytest.raises(StructureError, match="use an exact 'p/q' string"):
                as_scalar(value)

    def test_format_round_trip(self):
        for value in (F(0), F(7), F(-3, 4), F(22, 7)):
            assert as_scalar(format_scalar(value)) == value


class TestStructureTensor:
    def test_from_rows_completes_antisymmetrically(self):
        t = su2_tensor()
        assert t.c[0][1] == (F(0), F(0), F(2))
        assert t.c[1][0] == (F(0), F(0), F(-2))
        assert t.c[1][1] == (F(0), F(0), F(0))

    def test_constructor_is_not_a_way_in(self):
        c = tuple(tuple((F(0), F(0)) for _ in range(2)) for _ in range(2))
        with pytest.raises(TypeError):
            StructureTensor(2, c)

    @pytest.mark.parametrize(
        "entry, message",
        [
            (True, "not a scalar: True"),
            (0.5, "floating literal 0.5 not allowed; use an exact 'p/q' string"),
            ("1/x", "not an exact rational literal: '1/x'"),
            (-3, None),
            (F(-3), None),
            (F(0), None),
        ],
        ids=["bool", "float", "malformed-string", "int", "fraction", "unshared-zero"],
    )
    def test_from_rows_entry_kinds(self, entry, message):
        # One entry of a row of Fractions replaced: a rejected kind keeps
        # as_scalar's message; an accepted one gives the dense antisymmetric
        # table, with the entry as a Fraction.
        row = [F(0), F(1, 2), entry, F(0), F(-2)]
        rows = {(0, 1): row, (1, 3): [F(0), F(0), F(0), F(7, 3), F(0)]}
        if message is not None:
            with pytest.raises(StructureError) as info:
                StructureTensor.from_rows(5, rows)
            assert str(info.value) == message
            return
        tensor = StructureTensor.from_rows(5, rows)
        c = [[[F(0)] * 5 for _ in range(5)] for _ in range(5)]
        for (i, j), values in rows.items():
            c[i][j] = [F(v) for v in values]
            c[j][i] = [-F(v) for v in values]
        assert (tensor.dim, tensor.c) == (5, tuple(tuple(map(tuple, block)) for block in c))
        assert all(type(v) is Fraction for block in tensor.c for vec in block for v in vec)

    def test_rejects_bad_pairs(self):
        with pytest.raises(StructureError, match="i < j"):
            StructureTensor.from_rows(3, {(1, 0): [0, 0, 1]})
        with pytest.raises(StructureError, match="out of range"):
            StructureTensor.from_rows(3, {(0, 5): [0, 0, 1]})


class TestBracket:
    def test_su2_basis_bracket(self):
        assert bracket(su2_tensor(), [1, 0, 0], [0, 1, 0]) == (F(0), F(0), F(2))

    def test_sl2r_basis_bracket(self):
        assert bracket(sl2r_tensor(), [0, 1, 0], [0, 0, 1]) == (F(-2), F(0), F(0))

    def test_equal_arguments_vanish(self):
        v = [F(1, 2), F(-3), F(7, 5)]
        assert bracket(su2_tensor(), v, v) == (F(0), F(0), F(0))

    def test_setup_level_bracket(self):
        setup = build_family(FamilySpec.create("su2"))
        u = [0, 0, 0, 0, 0]
        u[0] = 1
        v = [0, 0, 0, 0, 0]
        v[1] = 1
        assert bracket(setup.tensor, u, v)[2] == F(2)

    @given(
        u=st.lists(st.fractions(max_denominator=6), min_size=5, max_size=5),
        v=st.lists(st.fractions(max_denominator=6), min_size=5, max_size=5),
        a=st.fractions(max_denominator=6),
    )
    @settings(max_examples=40, deadline=None)
    def test_bilinear_and_antisymmetric(self, u, v, a):
        t = assemble_family_table(FamilySpec.create("su2", {"b11": 1, "c21": F(1, 2), "rho": 3}))
        uv = bracket(t, u, v)
        vu = bracket(t, v, u)
        assert uv == tuple(-x for x in vu)
        scaled = bracket(t, [a * x for x in u], v)
        assert scaled == tuple(a * x for x in uv)


class TestJacobiResidual:
    def test_su2_is_lie_algebra(self):
        report = jacobi_residual(su2_tensor())
        assert report.is_zero
        assert report.violations == ()

    def test_family_table_closes(self):
        # Oracle: every C(5,3) triple expanded by the bilinear bracket.
        spec = FamilySpec.create("su2", {"b11": 2, "c22": 3})
        setup = build_family(spec)
        assert jacobi_residual(setup.tensor).is_zero

    def test_perturbed_theta_fails_on_bxy_triple(self):
        from liefol.families import closed_form_theta

        spec = FamilySpec.create("su2", {"b11": 2, "c22": 3})
        theta = list(closed_form_theta(spec))
        theta[0] += 1
        bad = theta_table(spec, theta)
        report = jacobi_residual(bad)
        assert not report.is_zero
        triples = {t for t, _ in report.violations}
        assert (1, 3, 4) in triples  # (B, X, Y)

    def test_brute_force_cross_check(self):
        # Independent expansion of one known identity: J(A,B,X) on a generic table.
        spec = FamilySpec.create("su2", {"b11": 1, "c11": F(1, 3), "c12": F(-2, 5)})
        t = build_family(spec).tensor

        def basis(i):
            v = [F(0)] * 5
            v[i] = F(1)
            return v

        a, b, x = basis(0), basis(1), basis(3)
        total = [
            p + q + r
            for p, q, r in zip(
                bracket(t, bracket(t, a, b), x),
                bracket(t, bracket(t, b, x), a),
                bracket(t, bracket(t, x, a), b),
            )
        ]
        assert not any(total)


def reference_jacobi(tensor: StructureTensor):
    """(max_abs, violations, worst triple) from a plain triple loop over the bilinear bracket.

    Independent of the residual's kernel and of its zero skipping:
    every triple i < j < k is expanded as three nested `bracket` calls on basis
    vectors.  The worst triple is the first one reaching max_abs.
    """
    dim = tensor.dim
    basis = [[F(int(a == b)) for b in range(dim)] for a in range(dim)]
    br = functools.partial(bracket, tensor)
    violations = []
    for i, j, k in combinations(range(dim), 3):
        ei, ej, ek = basis[i], basis[j], basis[k]
        total = tuple(
            p + q + r for p, q, r in zip(br(br(ei, ej), ek), br(br(ej, ek), ei), br(br(ek, ei), ej))
        )
        if any(total):
            violations.append(((i, j, k), total))
    sizes = [max(abs(x) for x in vec) for _, vec in violations]
    max_abs = max(sizes, default=F(0))
    worst = violations[sizes.index(max_abs)][0] if violations else None
    return max_abs, tuple(violations), worst


# Mostly -1, 0 and 1, so that terms cancel, with some small p/q.
TABLE_ENTRIES = st.one_of(
    st.sampled_from([-1, 0, 1]), st.sampled_from([-1, 1]), st.fractions(-2, 2, max_denominator=3)
)
SMALL_FRACTIONS = st.fractions(-3, 3, max_denominator=4)


@st.composite
def cancelling_tables(draw) -> StructureTensor:
    dim = draw(st.integers(3, 9))
    pairs = list(combinations(range(dim), 2))
    filled = draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=len(pairs), unique=True))
    rows = {pair: draw(st.lists(TABLE_ENTRIES, min_size=dim, max_size=dim)) for pair in filled}
    return StructureTensor.from_rows(dim, rows)


@st.composite
def perturbed_family_tables(draw) -> StructureTensor:
    family = draw(st.sampled_from(list(FamilyId)))
    params = {name: draw(SMALL_FRACTIONS) for name in family_parameter_names(family)}
    spec = FamilySpec.create(family, params)
    theta = list(closed_form_theta(spec))
    for index in draw(st.lists(st.integers(0, len(theta) - 1), max_size=2)):
        theta[index] += draw(SMALL_FRACTIONS.filter(bool))
    return theta_table(spec, theta)


class TestJacobiMatchesReference:
    """`jacobi_residual` equals a test-side triple loop built on the bilinear `bracket`."""

    @staticmethod
    def assert_matches_reference(tensor: StructureTensor):
        report = jacobi_residual(tensor)
        assert (report.max_abs, report.violations, report.worst_triple) == reference_jacobi(tensor)
        assert all(type(x) is Fraction for _, vec in report.violations for x in vec)

    @given(tensor=cancelling_tables())
    @settings(max_examples=120, deadline=None)
    def test_random_tables(self, tensor):
        self.assert_matches_reference(tensor)

    @given(tensor=perturbed_family_tables())
    @settings(max_examples=60, deadline=None)
    def test_perturbed_family_tables(self, tensor):
        self.assert_matches_reference(tensor)


def huge_non_lie_table(digits: int) -> StructureTensor:
    """[e0, e1] = N e0 and [e0, e2] = N e2 with N = 10^digits - 1: residual N^2 e2 at (0, 1, 2)."""
    n = int("9" * digits)
    return StructureTensor.from_rows(5, {(0, 1): [n, 0, 0, 0, 0], (0, 2): [0, 0, n, 0, 0]})


class TestJacobiGate:
    def test_lie_algebra_passes(self):
        assert require_lie_algebra(su2_tensor()) is None

    def test_failure_carries_the_report(self):
        spec = FamilySpec.create("su2", {"b11": 2, "c22": 3})
        theta = list(closed_form_theta(spec))
        theta[0] += 1
        bad = theta_table(spec, theta)
        with pytest.raises(JacobiError) as err:
            require_lie_algebra(bad)
        assert isinstance(err.value, ConstraintError)
        assert err.value.relation == "jacobi residual = 0"
        assert err.value.report == jacobi_residual(bad)
        report = err.value.report
        assert str(err.value) == (
            f"bracket table is not a Lie algebra: max Jacobi residual "
            f"'{format_scalar(report.max_abs)}' at triple {report.worst_triple}"
        )

    def test_huge_residual_gives_a_short_message(self):
        # The residual has 6000 digits, more than str() converts; the message
        # echoes it shortened.
        table = huge_non_lie_table(3000)
        with pytest.raises(JacobiError) as err:
            require_lie_algebra(table)
        assert len(str(err.value)) <= 300 and "\n" not in str(err.value)
        assert err.value.report.worst_triple == (0, 1, 2)
        assert format_scalar(err.value.report.max_abs) == "9" * 2999 + "8" + "0" * 2999 + "1"


def record_zero_operands(monkeypatch, methods):
    """Wrap each Fraction method; returns (all calls, calls with a zero operand) as they happen."""
    calls, zero_calls = [], []

    def recording(name, operation):
        def wrapped(a, b):
            calls.append((name, a, b))
            if not a or not b:
                zero_calls.append((name, a, b))
            return operation(a, b)

        return wrapped

    for name in methods:
        monkeypatch.setattr(Fraction, name, recording(name, getattr(Fraction, name)))
    return calls, zero_calls


class TestJacobiArithmetic:
    def test_no_fraction_addition_has_a_zero_operand(self, monkeypatch):
        # Guards the cost of the residual, the Koszul sums, the Killing form
        # and the frame-free sff_H sums, not their values: adding a zero builds
        # a new Fraction and runs a gcd for nothing.
        setup = build_family(
            FamilySpec.create(
                "su2xsu2", {"b11": 1, "c21": F(1, 2), "s14": -2, "t15": F(3, 5), "rho": 3}, (1, -1, 1, -1, 1, 1, -1, 1)
            )
        )
        # A circle member with nonzero mean-curvature sums and sff_H entries.
        circle = build_family(
            FamilySpec.create(
                "su2xso2",
                {"b11": 1, "c21": F(1, 2), "rho": 2, "x1": 1, "x2": -1, "y1": 1, "y2": 1, "t14": 2},
                (1, -1, 1, 1, 1, 1),
            )
        )
        # A dim-12 table with about half its rows filled, failing Jacobi.
        rng = random.Random(3)
        rows = {
            pair: [rng.choice((-1, 0, 1, F(1, 2))) for _ in range(12)]
            for pair in combinations(range(12), 2)
            if rng.random() < 0.5
        }
        failing = StructureTensor.from_rows(12, rows)
        additions, zero_additions = record_zero_operands(monkeypatch, ("__add__", "__radd__"))
        reports = [jacobi_residual(setup.tensor), jacobi_residual(failing)]
        connection_coefficients(setup, require_jacobi=False)
        killing = [killing_form(s.tensor, s.vertical) for s in (setup, circle)]
        horizontal = [FrameFreeHorizontal.from_setup(s) for s in (setup, circle)]
        monkeypatch.undo()
        assert reports[0].is_zero and not reports[1].is_zero
        assert [k[0][0] for k in killing] == [-8, -8]
        assert horizontal[1].mean_sums == (-2, 0)
        assert additions, "the recording hooks saw no addition"
        assert zero_additions == []


class TestAssemblyArithmetic:
    def test_theta_and_table_assembly_have_no_zero_operand(self, monkeypatch):
        # Guards the cost of closed_form_theta and the table rows, not their
        # values: a product with a zero factor, or a sign applied by
        # multiplication, builds Fractions for nothing.
        specs = [
            FamilySpec.create(
                "su2xsu2", {"b11": 1, "c21": F(1, 2), "s14": -2, "t15": F(3, 5), "rho": 3}, (1, -1, 1, -1, 1, 1, -1, 1)
            ),
            FamilySpec.create(
                "su2xso2",
                {"b11": 1, "c21": F(1, 2), "rho": 2, "x1": 1, "x2": -1, "y1": 1, "y2": 1, "t14": 2},
                (1, -1, 1, 1, 1, 1),
            ),
        ]
        calls, zero_calls = record_zero_operands(
            monkeypatch, ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__")
        )
        thetas = [closed_form_theta(spec) for spec in specs]
        tables = [assemble_family_table(spec) for spec in specs]
        monkeypatch.undo()
        assert all(jacobi_residual(table).is_zero for table in tables)
        assert thetas[0][:3] == (F(1, 4), F(0), F(-3, 2)) and thetas[1][3] == 2
        assert calls, "the recording hooks saw no operation"
        assert zero_calls == []


class TestHugeIndices:
    @pytest.mark.parametrize(
        "build",
        [
            lambda: killing_form(su2_tensor(), (10**5000,)),
            lambda: MetricFrame((1, 1, 1, 1, 10**5000)),
            lambda: FoliationSetup(
                StructureTensor.from_rows(5, {}), MetricFrame((1, 1, 1, 1, 1)), (0, 1, 2), (10**5000, 4)
            ),
        ],
        ids=["killing_form", "MetricFrame", "FoliationSetup"],
    )
    def test_huge_index_gives_a_short_message(self, build):
        # 5000 digits is more than repr() converts; reprlib once raised ValueError on it.
        with pytest.raises(StructureError) as info:
            build()
        message = str(info.value)
        assert "1000" in message and "..." in message
        assert len(message) <= 300 and "\n" not in message


class TestKillingForm:
    def test_su2_diagonal_minus_eight(self):
        # Hand oracle: ad matrices assembled and traced without killing_form.
        t = su2_tensor()
        ad = []
        for a in range(3):
            ad.append([[t.c[a][m][r] for m in range(3)] for r in range(3)])

        def mat_mul(p, q):
            return [
                [sum(p[r][m] * q[m][s] for m in range(3)) for s in range(3)]
                for r in range(3)
            ]

        expected = [
            [sum(mat_mul(ad[a], ad[b])[m][m] for m in range(3)) for b in range(3)]
            for a in range(3)
        ]
        assert killing_form(t, (0, 1, 2)) == tuple(tuple(row) for row in expected)
        assert killing_form(t, (0, 1, 2)) == (
            (F(-8), F(0), F(0)),
            (F(0), F(-8), F(0)),
            (F(0), F(0), F(-8)),
        )

    def test_abelian_line_is_zero(self):
        t = StructureTensor.from_rows(1, {})
        assert killing_form(t, (0,)) == ((F(0),),)

    def test_su2_su2_block_diagonal(self):
        setup = build_family(FamilySpec.create("su2xsu2"))
        k = killing_form(setup.tensor, (0, 1, 2, 3, 4, 5))
        for i in range(6):
            for j in range(6):
                expected = F(-8) if i == j else F(0)
                assert k[i][j] == expected

    def test_rejects_non_subalgebra(self):
        setup = build_family(FamilySpec.create("su2"))
        with pytest.raises(StructureError, match="closed under bracket"):
            killing_form(setup.tensor, (0, 1))  # [A,B] = 2C leaves the span

    @pytest.mark.parametrize("digits", [3001, 5000])
    def test_huge_component_outside_the_span_gives_a_short_message(self, digits):
        # 5000 digits is more than str() converts; 3001 once gave a 3071-character message.
        tensor = StructureTensor.from_rows(3, {(0, 1): [0, 0, F(-(10**digits), 3)]})
        with pytest.raises(StructureError) as info:
            killing_form(tensor, (0, 1))
        message = str(info.value)
        assert message.startswith("indices (0, 1) not closed under bracket: [e_0, e_1] has e_2 component -1000")
        assert "..." in message
        assert len(message) <= 300 and "\n" not in message


class TestSemisimplicity:
    """Cartan's criterion: semisimple iff the Killing form has nonzero determinant."""

    def test_simple_algebras(self):
        assert determinant(killing_form(su2_tensor(), (0, 1, 2))) != 0
        assert determinant(killing_form(sl2r_tensor(), (0, 1, 2))) != 0

    def test_su2xsu2_vertical(self):
        setup = build_family(FamilySpec.create("su2xsu2"))
        assert determinant(killing_form(setup.tensor, setup.vertical)) != 0

    def test_circle_factor_kills_semisimplicity(self):
        setup = build_family(FamilySpec.create("su2xso2"))
        assert determinant(killing_form(setup.tensor, setup.vertical)) == 0
        setup2 = build_family(FamilySpec.create("sl2rxso2"))
        assert determinant(killing_form(setup2.tensor, setup2.vertical)) == 0


class TestMetricFrame:
    def test_validation(self):
        with pytest.raises(StructureError):
            MetricFrame((1, 0, 1))
        with pytest.raises(StructureError):
            MetricFrame(())

    @pytest.mark.parametrize("epsilon", [(True, True, True), (1.0, -1, 1)])
    def test_rejects_non_int_entries(self, epsilon):
        with pytest.raises(StructureError, match="causal characters"):
            MetricFrame(epsilon)


class TestFoliationSetup:
    def test_partition_validation(self):
        t = su2_tensor()
        frame = MetricFrame((1, 1, 1))
        with pytest.raises(StructureError, match="partition"):
            FoliationSetup(t, frame, (0,), (1, 1))

    def test_rejects_small_dimension(self):
        t = StructureTensor.from_rows(2, {})
        with pytest.raises(StructureError, match="dim >= 3"):
            FoliationSetup(t, MetricFrame((1, 1)), (), (0, 1))

    def test_vertical_must_be_subalgebra(self):
        # [e0, e1] = e3 sticks out of the vertical span {0, 1}.
        t = StructureTensor.from_rows(4, {(0, 1): [0, 0, 0, 1]})
        with pytest.raises(StructureError, match="subalgebra"):
            FoliationSetup(t, MetricFrame((1, 1, 1, 1)), (0, 1), (2, 3))

    def test_vertical_closure_accepts_families(self):
        setup = build_family(FamilySpec.create("su2xsl2r", {"b11": 1, "t15": 2}))
        assert setup.vertical == (0, 1, 2, 3, 4, 5)
        assert setup.horizontal == (6, 7)
