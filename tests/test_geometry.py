"""Connection, second fundamental forms, classification flags."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liefol.algebra import (
    FoliationSetup,
    JacobiError,
    MetricFrame,
    StructureError,
    StructureTensor,
    jacobi_residual,
    killing_form,
)
from liefol.families import (
    _RAW_SO2_COEFFS,
    FamilyId,
    FamilySpec,
    build_family,
    build_so2_raw_setup,
    family_dimension,
    family_parameter_names,
)
from liefol.geometry import (
    FrameFreeVertical,
    _halves,
    classify,
    connection_coefficients,
    second_fundamental_form_horizontal,
    second_fundamental_form_vertical,
    second_fundamental_form_vertical_via_connection,
)
from liefol.linalg import determinant, solve_linear_system
from liefol.verifier import _draw_params
from test_algebra import huge_non_lie_table

F = Fraction


def abelian_setup(dim=4) -> FoliationSetup:
    t = StructureTensor.from_rows(dim, {})
    return FoliationSetup(t, MetricFrame((1,) * dim), tuple(range(dim - 2)), (dim - 2, dim - 1))


def table_from_dense(c) -> StructureTensor:
    """The table of a dense dim x dim x dim c, built by from_rows from its rows i < j.

    from_rows implies the mirror rows, so c's antisymmetry is asserted here
    first: c[i][j][k] == -c[j][i][k] for every i, j, k, diagonal included.
    """
    dim = len(c)
    for i in range(dim):
        for j in range(dim):
            for k in range(dim):
                assert c[i][j][k] == -c[j][i][k], f"not antisymmetric at c[{i}][{j}][{k}]"
    return StructureTensor.from_rows(dim, {(i, j): c[i][j] for i in range(dim) for j in range(i + 1, dim)})


def family_member(family: FamilyId, rng: random.Random, signature: tuple[int, ...]) -> FamilySpec:
    """A seeded member of the family; circle families draw from their feasible stratum."""
    [(params, _)], _ = _draw_params(rng, family, 6, (signature[-2] * signature[-1],))
    return FamilySpec.create(family, params, signature)


def random_family_setup(rng: random.Random):
    family = rng.choice(list(FamilyId))
    signature = tuple(rng.choice((1, -1)) for _ in range(family_dimension(family)))
    spec = family_member(family, rng, signature)
    return spec, build_family(spec)


class TestConnection:
    def test_abelian_connection_vanishes(self):
        gamma = connection_coefficients(abelian_setup())
        assert all(
            not any(gamma[i][j]) for i in range(4) for j in range(4)
        )

    def test_su2_biinvariant_is_half_bracket(self):
        setup = build_family(FamilySpec.create("su2"))
        gamma = connection_coefficients(setup)
        # nabla_A B = C, and in general nabla = half the bracket on the block.
        assert gamma[0][1] == (F(0), F(0), F(1), F(0), F(0))
        for i in range(3):
            for j in range(3):
                half_bracket = tuple(F(1, 2) * v for v in setup.tensor.c[i][j])
                assert gamma[i][j] == half_bracket

    def test_family_nabla_x_x_vanishes(self):
        setup = build_family(FamilySpec.create("su2", {"b11": 1}))
        gamma = connection_coefficients(setup)
        assert not any(gamma[3][3])

    def test_rejects_non_lie_algebra(self):
        # Vertical span is bracket-closed but J(e0, e1, e2) = e2 != 0.
        t = StructureTensor.from_rows(
            5, {(0, 1): [1, 0, 0, 0, 0], (0, 2): [0, 0, 1, 0, 0]}
        )
        setup = FoliationSetup(t, MetricFrame((1,) * 5), (0, 1, 2), (3, 4))
        with pytest.raises(JacobiError):
            connection_coefficients(setup)

    @pytest.mark.parametrize("seed", range(4))
    def test_koszul_identity_holds_verbatim(self, seed):
        # 2 eps_k gamma[i][j][k] = g([e_k,e_i],e_j) + g([e_k,e_j],e_i) + g(e_k,[e_i,e_j]),
        # with the right side evaluated through the metric, not index lookups.
        rng = random.Random(300 + seed)
        _, setup = random_family_setup(rng)
        gamma = connection_coefficients(setup)
        dim = setup.dim
        eps = setup.frame.epsilon
        t = setup.tensor

        def basis(i):
            v = [F(0)] * dim
            v[i] = F(1)
            return tuple(v)

        def g(u, v):
            return sum((e * a * b for e, a, b in zip(eps, u, v)), F(0))

        for i in range(dim):
            for j in range(dim):
                for k in range(dim):
                    rhs = g(t.c[k][i], basis(j)) + g(t.c[k][j], basis(i)) + g(basis(k), t.c[i][j])
                    assert 2 * eps[k] * gamma[i][j][k] == rhs

    @staticmethod
    def textbook_gamma(setup: FoliationSetup):
        """Reference: the Koszul formula on every (i, j, k), with no zero skipping."""
        c, eps, dim = setup.tensor.c, setup.frame.epsilon, setup.dim
        return tuple(
            tuple(
                tuple(
                    F(1, 2) * eps[k] * (eps[j] * c[k][i][j] + eps[i] * c[k][j][i] + eps[k] * c[i][j][k])
                    for k in range(dim)
                )
                for j in range(dim)
            )
            for i in range(dim)
        )

    @staticmethod
    def random_raw_setup(rng: random.Random) -> FoliationSetup:
        """A sparse random bracket table, usually not a Lie algebra, with a random split."""
        dim = rng.randint(3, 8)
        horizontal = tuple(rng.sample(range(dim), 2))
        vertical = tuple(i for i in range(dim) if i not in horizontal)
        rows = {}
        for i in range(dim):
            for j in range(i + 1, dim):
                if rng.random() < 0.4:
                    # The vertical span must stay a subalgebra.
                    closed = i in vertical and j in vertical
                    rows[(i, j)] = [
                        F(rng.randint(-5, 5), rng.randint(1, 4))
                        if rng.random() < 0.3 and not (closed and k in horizontal)
                        else F(0)
                        for k in range(dim)
                    ]
        frame = MetricFrame(tuple(rng.choice((1, -1)) for _ in range(dim)))
        return FoliationSetup(StructureTensor.from_rows(dim, rows), frame, vertical, horizontal)

    def test_matches_textbook_koszul_loop(self):
        rng = random.Random(17)
        setups = [random_family_setup(rng)[1] for _ in range(12)]
        setups += [self.random_raw_setup(rng) for _ in range(40)]
        # A table built from int entries.
        raw = setups[-1]
        ints = tuple(tuple(tuple(int(2 * v) for v in vec) for vec in row) for row in raw.tensor.c)
        setups.append(
            FoliationSetup(table_from_dense(ints), raw.frame, raw.vertical, raw.horizontal)
        )
        assert sum(not jacobi_residual(setup.tensor).is_zero for setup in setups) > len(setups) // 2
        skipped = 0
        for setup in setups:
            gamma = connection_coefficients(setup, require_jacobi=False)
            assert gamma == self.textbook_gamma(setup)
            entries = [v for rows in gamma for row in rows for v in row]
            assert all(type(v) is Fraction for v in entries)
            skipped += entries.count(0)
        assert skipped

    @pytest.mark.parametrize("seed", range(6))
    def test_torsion_free_and_metric_compatible(self, seed):
        rng = random.Random(seed)
        _, setup = random_family_setup(rng)
        gamma = connection_coefficients(setup)
        eps = setup.frame.epsilon
        dim = setup.dim
        for i in range(dim):
            for j in range(dim):
                for k in range(dim):
                    # nabla_i e_j - nabla_j e_i = [e_i, e_j]
                    assert gamma[i][j][k] - gamma[j][i][k] == setup.tensor.c[i][j][k]
                    # g(nabla_i e_j, e_k) + g(e_j, nabla_i e_k) = 0
                    assert eps[k] * gamma[i][j][k] + eps[j] * gamma[i][k][j] == 0


class TestVerticalForm:
    def test_su2_diagonal_blocks_vanish(self):
        for params in ({}, {"b11": 3, "c21": F(1, 2), "rho": 1}):
            setup = build_family(FamilySpec.create("su2", params))
            bv = second_fundamental_form_vertical(setup)
            for k in range(3):
                assert not any(bv[(k, k)])

    def test_su2_mixed_pair_witness(self):
        # b11 = 1, eps_A = +1, eps_B = -1, eps_X = +1: sff_V(A, B) = -X.
        setup = build_family(FamilySpec.create("su2", {"b11": 1}, (1, -1, 1, 1, 1)))
        bv = second_fundamental_form_vertical(setup)
        assert bv[(0, 1)] == (F(0), F(0), F(0), F(-1), F(0))

    def test_abelian_vertical_vanishes(self):
        bv = second_fundamental_form_vertical(abelian_setup())
        assert all(not any(v) for v in bv.values())

    @pytest.mark.parametrize("seed", range(8))
    def test_connection_route_agrees(self, seed):
        rng = random.Random(100 + seed)
        _, setup = random_family_setup(rng)
        direct = second_fundamental_form_vertical(setup)
        via_connection = second_fundamental_form_vertical_via_connection(setup)
        assert direct == via_connection


    def test_witnesses_with_vertical_out_of_order(self):
        # Each signature's witness is the first nonzero pair of classify's sff_V,
        # in sorted (i, j) order, also when the vertical tuple is shuffled (so
        # some pairs have i > j); the signatures of no part are totally geodesic.
        rng = random.Random(41)
        setups = [random_family_setup(rng)[1] for _ in range(10)]
        setups += [TestConnection.random_raw_setup(rng) for _ in range(30)]
        shuffled = witnessed = 0
        for setup in setups:
            vertical = tuple(rng.sample(setup.vertical, len(setup.vertical)))
            shuffled += vertical != tuple(sorted(vertical))
            setup = FoliationSetup(setup.tensor, setup.frame, vertical, setup.horizontal)
            frame_free = FrameFreeVertical.from_setup(setup)
            signatures = [tuple(rng.choice((1, -1)) for _ in range(setup.dim)) for _ in range(4)]
            # minus[k]: bit n set when signatures[n] has eps_k = -1.
            minus = [sum(1 << n for n, eps in enumerate(signatures) if eps[k] < 0) for k in range(setup.dim)]
            picked = {}
            for bits, pair, vec in frame_free.witnesses(minus, 0b1111):
                for n in range(4):
                    if bits >> n & 1:
                        assert n not in picked
                        picked[n] = pair, vec
            for n, eps in enumerate(signatures):
                framed = FoliationSetup(setup.tensor, MetricFrame(eps), vertical, setup.horizontal)
                bv = classify(framed, require_jacobi=False).bv
                assert bv == second_fundamental_form_vertical_via_connection(framed, require_jacobi=False)
                expected = next((item for item in sorted(bv.items()) if any(item[1])), None)
                assert picked.get(n) == expected
                assert bool(frame_free.totally_geodesic(minus, 0b1111) >> n & 1) == (expected is None)
                witnessed += expected is not None
        assert shuffled > len(setups) // 2 and witnessed > len(setups)


@st.composite
def coefficient_pairs(draw):
    """(t1, t2) with zero, equal and opposite pairs and t1 = 0 drawn often, the shapes family tables give."""
    scalar = st.fractions(min_value=-20, max_value=20, max_denominator=12)
    t1 = draw(st.one_of(st.just(F(0)), scalar))
    shape = draw(st.sampled_from(("zero", "equal", "opposite", "any")))
    if shape == "zero":
        return t1, F(0)
    if shape == "equal":
        return t1, t1
    if shape == "opposite":
        return t1, -t1
    return t1, draw(st.one_of(st.just(F(0)), scalar))


class TestHalves:
    @settings(max_examples=400, deadline=None)
    @given(pair=coefficient_pairs())
    def test_halves_are_the_half_sum_and_difference(self, pair):
        t1, t2 = pair
        halves = _halves(t1, t2, -t2)
        assert halves == ((t1 + t2) / 2, (t1 - t2) / 2)
        assert all(type(h) is Fraction for h in halves)


class TestHorizontalForm:
    def test_semisimple_families_have_zero_bh(self):
        setup = build_family(FamilySpec.create("su2", {"b11": 2, "c22": 1, "rho": 5}))
        bh = second_fundamental_form_horizontal(setup)
        assert not any(bh.xx) and not any(bh.xy) and not any(bh.yy)

    @pytest.mark.parametrize("eps", [(1, 1, 1, 1, 1, 1), (1, -1, 1, -1, 1, -1)])
    def test_raw_circle_table_components(self, eps):
        # x1 = y2 = 1, x2 = y1 = 0: conformal criteria hold and
        # sff_H(X,X) = eps_T * x1 * eps_X * T.
        setup = build_so2_raw_setup(FamilyId.SU2xSO2, eps, {"x1": 1, "y2": 1})
        bh = second_fundamental_form_horizontal(setup)
        eps_t, eps_x, eps_y = eps[3], eps[4], eps[5]
        assert bh.xx[3] == eps_t * eps_x
        assert bh.yy[3] == eps_t * eps_y
        assert eps_x * bh.xx[3] - eps_y * bh.yy[3] == 0
        assert not any(bh.xy)

    def test_abelian_vanishes(self):
        bh = second_fundamental_form_horizontal(abelian_setup())
        assert not any(bh.xx) and not any(bh.xy) and not any(bh.yy)


class TestClassify:
    def test_su2_family_always_semi_riemannian_minimal(self):
        rng = random.Random(5)
        for _ in range(10):
            params = {
                name: F(rng.randint(-6, 6), rng.randint(1, 6))
                for name in ("b11", "b21", "c11", "c12", "c21", "c22", "rho")
            }
            signature = tuple(rng.choice((1, -1)) for _ in range(5))
            report = classify(build_family(FamilySpec.create("su2", params, signature)))
            assert report.conformal and report.semi_riemannian and report.minimal

    def test_su2_broken_geodesy(self):
        report = classify(build_family(FamilySpec.create("su2", {"b11": 1}, (1, -1, 1, 1, 1))))
        assert not report.totally_geodesic
        assert report.minimal
        pairs = [pair for pair, _ in report.totally_geodesic_witnesses]
        assert pairs == [(0, 1)]

    def test_totally_geodesic_implies_minimal(self):
        rng = random.Random(6)
        for _ in range(20):
            _, setup = random_family_setup(rng)
            report = classify(setup, require_jacobi=False)
            if report.totally_geodesic:
                assert report.minimal
            if report.semi_riemannian:
                assert report.conformal and not any(report.conformal_vector)

    def test_semisimple_conformal_implies_semi_riemannian(self):
        rng = random.Random(16)
        for _ in range(20):
            _, setup = random_family_setup(rng)
            report = classify(setup, require_jacobi=False)
            if report.conformal and determinant(killing_form(setup.tensor, setup.vertical)) != 0:
                assert report.semi_riemannian

    def test_circle_family_t14_kills_minimality(self):
        setup = build_family(FamilySpec.create("su2xso2", {"t14": 1}))
        report = classify(setup)
        assert report.conformal and report.semi_riemannian
        assert not report.minimal
        # mean curvature = -(t14 eps_X X + t24 eps_Y Y) here: nonzero along X.
        assert report.mean_curvature[4] != 0

    def test_conformal_vector_tracks_x1(self):
        spec = FamilySpec.create("su2xso2", {"x1": F(2, 3), "y2": F(2, 3)})
        report = classify(build_family(spec))
        assert report.conformal and not report.semi_riemannian
        assert report.conformal_vector[3] == F(2, 3)

    def test_non_conformal_raw_table(self):
        setup = build_so2_raw_setup(FamilyId.SU2xSO2, (1,) * 6, {"x1": 1, "y2": 2})
        report = classify(setup, require_jacobi=False)
        assert not report.conformal

    def test_classify_requires_jacobi_by_default(self):
        setup = build_so2_raw_setup(FamilyId.SU2xSO2, (1,) * 6, {"t11": 1, "x1": 1, "y2": 1})
        with pytest.raises(JacobiError):
            classify(setup)

    @pytest.mark.parametrize("digits", [1, 3000])
    def test_every_jacobi_gated_entry_point_raises_the_gate_error(self, digits):
        tensor = huge_non_lie_table(digits)
        setup = FoliationSetup(tensor, MetricFrame((1,) * 5), (0, 1, 2), (3, 4))
        for entry_point in (classify, connection_coefficients, second_fundamental_form_vertical_via_connection):
            with pytest.raises(JacobiError) as err:
                entry_point(setup)
            assert err.value.report == jacobi_residual(tensor)
            assert len(str(err.value)) <= 300

    def test_int_entry_table_keeps_exact_fraction_entries(self):
        # A table built from int entries: every form entry, the mean
        # curvature and the conformal vector are still Fractions, equal to
        # those of the same table with Fraction entries.
        names = family_parameter_names(FamilyId.SU2xSO2)
        setup = build_so2_raw_setup(
            FamilyId.SU2xSO2, (1, -1, 1, -1, 1, -1), {n: i + 1 for i, n in enumerate(names)}
        )
        ints = tuple(tuple(tuple(int(v) for v in vec) for vec in row) for row in setup.tensor.c)
        int_setup = FoliationSetup(
            table_from_dense(ints), setup.frame, setup.vertical, setup.horizontal
        )
        report = classify(int_setup, require_jacobi=False)
        assert report == classify(setup, require_jacobi=False)
        bh = second_fundamental_form_horizontal(int_setup)
        assert bh == second_fundamental_form_horizontal(setup)
        entries = [
            *bh.xx,
            *bh.xy,
            *bh.yy,
            *report.mean_curvature,
            *report.conformal_vector,
            *(v for vec in report.bv.values() for v in vec),
        ]
        assert all(type(v) is Fraction for v in entries)
        assert any(v.denominator == 2 for v in entries)

    def test_permuted_index_layout(self):
        # Vertical/horizontal sets need not be contiguous: su2 on {0, 2, 4},
        # horizontal pair (1, 3), with [e4, e1] = -e3 mirroring a b11-type row.
        t = StructureTensor.from_rows(
            5,
            {
                (0, 2): [0, 0, 0, 0, 2],   # [A, B] = 2C
                (0, 4): [0, 0, -2, 0, 0],  # [A, C] = -2B
                (2, 4): [2, 0, 0, 0, 0],   # [B, C] = 2A
                (0, 1): [0, 0, -1, 0, 0],  # [A, X] = -B
                (1, 2): [-1, 0, 0, 0, 0],  # [X, B] = -A
            },
        )
        setup = FoliationSetup(t, MetricFrame((1, 1, -1, 1, 1)), (0, 2, 4), (1, 3))
        report = classify(setup)
        assert report.conformal and report.semi_riemannian and report.minimal
        # eps_B = -eps_A with the b11-type coefficient nonzero: not geodesic.
        assert not report.totally_geodesic
        assert [pair for pair, _ in report.totally_geodesic_witnesses] == [(0, 2)]


# The paper's bracket and product lemmas, as test-side oracles: the classifier
# decides conformality from the second fundamental forms and needs neither.
def check_conformal_bracket_condition(setup: FoliationSetup) -> bool:
    """Horizontal projection of [[V, V], H] vanishes for all basis choices.

    Necessary for conformality of the foliation; with a semisimple vertical
    subalgebra it upgrades conformal to semi-Riemannian.
    """
    c = setup.tensor.c
    hset = setup.horizontal
    for a, i in enumerate(setup.vertical):
        for j in setup.vertical[a + 1 :]:
            row = c[i][j]
            for h in hset:
                # [row, e_h] = sum_m row_m [e_m, e_h], along the horizontal e_k.
                if any(sum(rm * c[m][h][k] for m, rm in enumerate(row)) for k in hset):
                    return False
    return True


def check_product_condition(setup: FoliationSetup, blocks: list[tuple[int, ...]]) -> bool:
    """For a vertical splitting into ideals, [block_k, H] never leaks into block_j (j != k).

    Raises StructureError if the blocks do not partition the vertical set or a
    block is not an ideal of the vertical subalgebra.
    """
    flat = [i for block in blocks for i in block]
    if sorted(flat) != sorted(setup.vertical):
        raise StructureError(f"blocks {blocks} do not partition the vertical set {setup.vertical}")
    c = setup.tensor.c
    for block in blocks:
        inside = set(block)
        for b in block:
            for v in setup.vertical:
                for k, coeff in enumerate(c[b][v]):
                    if coeff and k not in inside:
                        raise StructureError(
                            f"block {block} is not an ideal of the vertical subalgebra: "
                            f"[e_{b}, e_{v}] has e_{k} component"
                        )
    for bk, block_k in enumerate(blocks):
        others = [i for bj, blk in enumerate(blocks) if bj != bk for i in blk]
        if not others:
            continue
        for e in block_k:
            for h in setup.horizontal:
                row = c[e][h]
                if any(row[j] for j in others):
                    return False
    return True


class TestBracketCondition:
    def test_family_instances_satisfy(self):
        rng = random.Random(7)
        for _ in range(10):
            _, setup = random_family_setup(rng)
            assert check_conformal_bracket_condition(setup)

    def test_horizontal_leak_detected(self):
        # vertical span {A,B,C} with [B,C] = 2A and [A,X] carrying a Y component.
        t = StructureTensor.from_rows(5, {(1, 2): [2, 0, 0, 0, 0], (0, 3): [0, 0, 0, 0, 1]})
        setup = FoliationSetup(t, MetricFrame((1,) * 5), (0, 1, 2), (3, 4))
        assert not check_conformal_bracket_condition(setup)

    def test_abelian_vertical_trivially_true(self):
        assert check_conformal_bracket_condition(abelian_setup(5))


class TestProductCondition:
    def test_su2xsu2_blocks_do_not_mix(self):
        setup = build_family(FamilySpec.create("su2xsu2", {"b11": 1, "s14": 2}))
        assert check_product_condition(setup, [(0, 1, 2), (3, 4, 5)])

    def test_circle_row_leaks_into_su2_block(self):
        spec = FamilySpec.create("su2xso2", {"x1": 1, "y2": 1, "c12": 1})
        setup = build_family(spec)
        # [T, X] picks up a -1/2 A component, so {T} leaks into {A,B,C}.
        assert setup.tensor.c[3][4][0] == F(-1, 2)
        assert not check_product_condition(setup, [(0, 1, 2), (3,)])

    def test_single_block_trivially_true(self):
        setup = build_family(FamilySpec.create("su2", {"b11": 1}))
        assert check_product_condition(setup, [(0, 1, 2)])

    def test_rejects_non_partition(self):
        setup = build_family(FamilySpec.create("su2"))
        with pytest.raises(StructureError, match="partition"):
            check_product_condition(setup, [(0, 1)])

    def test_rejects_non_ideal_blocks(self):
        setup = build_family(FamilySpec.create("su2"))
        with pytest.raises(StructureError, match="ideal"):
            check_product_condition(setup, [(0,), (1, 2)])


@st.composite
def family_members(draw):
    family = draw(st.sampled_from(list(FamilyId)))
    dim = family_dimension(family)
    signature = tuple(draw(st.lists(st.sampled_from((1, -1)), min_size=dim, max_size=dim)))
    return family_member(family, random.Random(draw(st.integers(0, 2**32))), signature)


@st.composite
def raw_circle_setups(draw) -> FoliationSetup:
    """The raw circle ansatz with random coefficients: usually not a Lie algebra, and sff_H(X, Y) need not vanish."""
    family = draw(st.sampled_from((FamilyId.SU2xSO2, FamilyId.SL2RxSO2)))
    signature = tuple(draw(st.lists(st.sampled_from((1, -1)), min_size=6, max_size=6)))
    rng = random.Random(draw(st.integers(0, 2**32)))
    coeffs = {name: F(rng.randint(-4, 4), rng.randint(1, 4)) for name in _RAW_SO2_COEFFS}
    return build_so2_raw_setup(family, signature, coeffs)


def verdicts(spec: FamilySpec) -> tuple[bool, bool, bool, bool]:
    report = classify(build_family(spec))
    return report.conformal, report.semi_riemannian, report.minimal, report.totally_geodesic


class TestFrameCovariance:
    @settings(max_examples=120, deadline=None)
    @given(spec=family_members())
    def test_global_sign_flip_keeps_all_verdicts(self, spec):
        # eps -> -eps keeps eps_X*eps_Y, so the circle-family x2 stays admissible.
        flipped = MetricFrame(tuple(-e for e in spec.signature.epsilon))
        assert verdicts(FamilySpec(spec.family, spec.params, flipped)) == verdicts(spec)

    @settings(max_examples=80, deadline=None)
    @given(spec=family_members())
    def test_horizontal_rotation_or_boost_keeps_verdicts(self, spec):
        setup = build_family(spec)
        assert_rotation_covariance(setup, setup.horizontal)

    @settings(max_examples=40, deadline=None)
    @given(setup=raw_circle_setups())
    def test_raw_circle_table_rotation_or_boost(self, setup):
        # The forms only read the bracket table, so they move the same way on
        # the raw ansatz, where sff_H(X, Y) need not vanish.
        assert_rotation_covariance(setup, setup.horizontal, require_jacobi=False)

    @settings(max_examples=80, deadline=None)
    @given(setup=st.one_of(family_members().map(build_family), raw_circle_setups()), data=st.data())
    def test_vertical_rotation_or_boost_keeps_verdicts(self, setup, data):
        pair = data.draw(st.lists(st.sampled_from(setup.vertical), min_size=2, max_size=2, unique=True))
        assert_rotation_covariance(setup, tuple(pair), require_jacobi=False)

    @settings(max_examples=60, deadline=None)
    @given(setup=st.one_of(family_members().map(build_family), raw_circle_setups()), data=st.data())
    def test_basis_permutation_permutes_witnesses(self, setup, data):
        # A permutation matrix p moves every witness to its relabelled indices.
        x, y = setup.horizontal
        vertical = list(setup.vertical)
        for order in (data.draw(st.permutations(range(setup.dim))), [x, y, *vertical], [*vertical, y, x]):
            assert_covariance(setup, *permute_basis(setup, order), require_jacobi=False)
        # X and Y trade roles: the frame (Y, X) of the same split swaps sff_H(X, X) and sff_H(Y, Y).
        swapped = FoliationSetup(setup.tensor, setup.frame, setup.vertical, (y, x))
        identity = [[F(int(a == b)) for b in range(setup.dim)] for a in range(setup.dim)]
        assert_covariance(setup, swapped, identity, require_jacobi=False)

    @settings(max_examples=60, deadline=None)
    @given(spec=family_members(), scale=st.sampled_from((F(3, 7), F(-2))))
    def test_scaling_the_table_keeps_verdicts(self, spec, scale):
        assert_scaling_covariance(build_family(spec), scale)

    @settings(max_examples=40, deadline=None)
    @given(
        family=st.sampled_from((FamilyId.SU2xSO2, FamilyId.SL2RxSO2)),
        signature=st.lists(st.sampled_from((1, -1)), min_size=6, max_size=6),
        seed=st.integers(0, 2**32),
        scale=st.sampled_from((F(3, 7), F(-2))),
        conformal=st.booleans(),
    )
    def test_raw_circle_table_scaling(self, family, signature, seed, scale, conformal):
        rng = random.Random(seed)
        coeffs = {name: F(rng.randint(-4, 4), rng.randint(1, 4)) for name in _RAW_SO2_COEFFS}
        if conformal:
            # x1 = y2 and eps_X*x2 + eps_Y*y1 = 0, so the verdicts that need conformality are reached.
            coeffs.update(y2=coeffs["x1"], x2=-signature[4] * signature[5] * coeffs["y1"])
        assert_scaling_covariance(build_so2_raw_setup(family, tuple(signature), coeffs), scale)


def assert_scaling_covariance(setup: FoliationSetup, scale: Fraction) -> None:
    """c -> scale*c keeps all four verdicts and multiplies every Jacobi residual entry by scale^2.

    The forms, the mean curvature and the conformal vector are linear in c,
    and each verdict asks whether some of their entries vanish; the Jacobi
    residual is quadratic in c.
    """
    table = tuple(tuple(tuple(scale * v for v in vec) for vec in row) for row in setup.tensor.c)
    scaled = FoliationSetup(table_from_dense(table), setup.frame, setup.vertical, setup.horizontal)
    before, after = classify(setup, require_jacobi=False), classify(scaled, require_jacobi=False)
    assert report_verdicts(after) == report_verdicts(before)

    def times(vec):
        return tuple(scale * v for v in vec)

    assert (after.mean_curvature, after.conformal_vector) == (
        times(before.mean_curvature), times(before.conformal_vector)
    )
    bh_before, bh_after = second_fundamental_form_horizontal(setup), second_fundamental_form_horizontal(scaled)
    assert (bh_after.xx, bh_after.xy, bh_after.yy) == tuple(map(times, (bh_before.xx, bh_before.xy, bh_before.yy)))
    assert after.bv == {pair: times(vec) for pair, vec in before.bv.items()}
    residual, scaled_residual = jacobi_residual(setup.tensor), jacobi_residual(scaled.tensor)
    assert scaled_residual.violations == tuple(
        (triple, tuple(scale**2 * v for v in vec)) for triple, vec in residual.violations
    )


def assert_rotation_covariance(setup: FoliationSetup, pair: tuple[int, int], *, require_jacobi: bool = True) -> None:
    """classify agrees as tensors should after a rational rotation or boost of the basis pair.

    The pair is both horizontal or both vertical.  A rotation keeps it
    orthonormal when its causal characters are equal, a boost when they
    differ; the split, and so every verdict, stays the same.
    """
    i, j = pair
    eps = setup.frame.epsilon
    if eps[i] == eps[j]:
        block = ((F(3, 5), F(4, 5)), (F(-4, 5), F(3, 5)))
    else:
        block = ((F(5, 4), F(3, 4)), (F(3, 4), F(5, 4)))
    p = [[F(int(a == b)) for b in range(setup.dim)] for a in range(setup.dim)]
    (p[i][i], p[i][j]), (p[j][i], p[j][j]) = block
    assert_covariance(setup, change_of_basis(setup, p), p, require_jacobi=require_jacobi)


def assert_covariance(setup: FoliationSetup, moved: FoliationSetup, p, *, require_jacobi: bool = True) -> None:
    """classify on setup and on moved, the same split in the basis e'_a = sum_b p[a][b] e_b, agree.

    The verdicts are the same.  sff_V is an H-valued symmetric form on V and
    sff_H a V-valued one on H, so each value at (e'_a, e'_b) is the sum of
    p[a][i] p[b][j] times the value at (e_i, e_j).  The mean curvature and
    the conformal vector (twice the g-trace of sff_H) are vectors.  Every
    vector is compared in the new basis.
    """
    before = classify(setup, require_jacobi=require_jacobi)
    after = classify(moved, require_jacobi=require_jacobi)
    assert report_verdicts(after) == report_verdicts(before)
    dim = setup.dim
    q = inverse(p)

    def in_new_basis(vec):
        # v = sum_h v_h e_h with e_h = sum_m q[h][m] e'_m.
        return tuple(sum(v * row[m] for v, row in zip(vec, q)) for m in range(dim))

    def at(form, a, b):
        terms = [(p[a][i] * p[b][j], vec) for (i, j), vec in form.items() if p[a][i] and p[b][j]]
        return in_new_basis([sum(w * vec[k] for w, vec in terms) for k in range(dim)])

    assert after.mean_curvature == in_new_basis(before.mean_curvature)
    assert after.conformal_vector == in_new_basis(before.conformal_vector)
    bv = {**before.bv, **{(j, i): vec for (i, j), vec in before.bv.items()}}
    assert after.bv == {(a, b): at(bv, a, b) for a, b in after.bv}
    x, y = setup.horizontal
    bh_before, bh_after = second_fundamental_form_horizontal(setup), second_fundamental_form_horizontal(moved)
    bh = {(x, x): bh_before.xx, (x, y): bh_before.xy, (y, x): bh_before.xy, (y, y): bh_before.yy}
    nx, ny = moved.horizontal
    assert (bh_after.xx, bh_after.xy, bh_after.yy) == (at(bh, nx, nx), at(bh, nx, ny), at(bh, ny, ny))


def inverse(p):
    """The exact inverse of the square rational matrix p."""
    dim = len(p)
    columns = [solve_linear_system(p, [F(int(r == m)) for r in range(dim)]).particular for m in range(dim)]
    return [[columns[m][k] for m in range(dim)] for k in range(dim)]


def change_of_basis(setup: FoliationSetup, p) -> FoliationSetup:
    """setup in the basis e'_a = sum_b p[a][b] e_b, which keeps the split and the causal characters.

    [e'_a, e'_b] = sum p[a][i] p[b][j] c[i][j][k] e_k, and e_k = sum_m q[k][m] e'_m
    with q the inverse of p.
    """
    dim, c, eps = setup.dim, setup.tensor.c, setup.frame.epsilon
    for a in range(dim):
        for b in range(dim):
            g_ab = sum(e * x * y for e, x, y in zip(eps, p[a], p[b]))
            assert g_ab == (eps[a] if a == b else 0), "not orthonormal"
    rows = [[(i, v) for i, v in enumerate(row) if v] for row in p]
    q_rows = [[(m, v) for m, v in enumerate(row) if v] for row in inverse(p)]
    table = []
    for a in range(dim):
        table.append([])
        for b in range(dim):
            out = [F(0)] * dim
            for i, pai in rows[a]:
                for j, pbj in rows[b]:
                    for k, cijk in enumerate(c[i][j]):
                        for m, qkm in q_rows[k] if cijk else ():
                            out[m] += pai * pbj * cijk * qkm
            table[a].append(tuple(out))
    return FoliationSetup(table_from_dense(table), setup.frame, setup.vertical, setup.horizontal)


def permute_basis(setup: FoliationSetup, order) -> tuple[FoliationSetup, list]:
    """setup in the basis e'_a = e_{order[a]}, and that change of basis as a matrix p.

    The causal characters and the split are relabelled with the basis, so
    the foliation is the same one.
    """
    new = {old: a for a, old in enumerate(order)}
    c, eps = setup.tensor.c, setup.frame.epsilon
    table = tuple(tuple(tuple(c[i][j][k] for k in order) for j in order) for i in order)
    moved = FoliationSetup(
        table_from_dense(table),
        MetricFrame(tuple(eps[i] for i in order)),
        tuple(new[i] for i in setup.vertical),
        tuple(new[h] for h in setup.horizontal),
    )
    return moved, [[F(int(b == old)) for b in range(setup.dim)] for old in order]


def report_verdicts(report) -> tuple[bool, bool, bool, bool]:
    return report.conformal, report.semi_riemannian, report.minimal, report.totally_geodesic
