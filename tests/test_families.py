"""Family constructors, theta closed forms, and the theorem-level predicates."""

import random
from fractions import Fraction

import pytest

from liefol import families
from liefol.algebra import ConstraintError, StructureError, StructureTensor, jacobi_residual
from liefol.families import (
    FamilyId,
    FamilySpec,
    assemble_family_table,
    build_family,
    build_so2_raw_setup,
    closed_form_minimal,
    closed_form_theta,
    closed_form_totally_geodesic,
    family_basis_names,
    family_dimension,
    family_parameter_names,
    so2_failed_relation,
    totally_geodesic_conditions,
)
from liefol.geometry import classify
from liefol.verifier import _draw_params

F = Fraction


def theta_table(spec, theta=None, *, unscaled_t_rows=False):
    """spec's bracket table from families._family_rows, unvalidated, with [X, Y] vertical coefficients theta.

    theta defaults to the closed form.  unscaled_t_rows leaves the B and C
    components of the [T, X] and [T, Y] rows unscaled by the block sign, that
    is, negates them for sl2r x so2 (see rejected_sl2rxso2_table).
    """
    dim = family_dimension(spec.family)
    theta = closed_form_theta(spec) if theta is None else theta
    rows = families._family_rows(spec.family, spec.params, theta)
    if unscaled_t_rows:
        for h_index in (dim - 2, dim - 1):
            row = rows[(3, h_index)]
            row[1], row[2] = -row[1], -row[2]
    return StructureTensor.from_rows(dim, rows)


def rejected_sl2rxso2_table(spec, theta=None):
    """sl2r x so2 with the sign pattern the Jacobi identity rejects, unvalidated.

    assemble_family_table scales the B and C components of the [T, X] and
    [T, Y] rows by the block sign, -1 for sl2r; this table leaves them
    unscaled, that is, negates them.
    """
    return theta_table(spec, theta, unscaled_t_rows=True)

ALL_FAMILIES = list(FamilyId)
SEMISIMPLE = [FamilyId.SU2, FamilyId.SL2R, FamilyId.SU2xSU2, FamilyId.SU2xSL2R]
CIRCLE = [FamilyId.SU2xSO2, FamilyId.SL2RxSO2]


class TestSpecCreation:
    def test_defaults_to_zero_and_riemannian(self):
        spec = FamilySpec.create("su2")
        assert all(v == 0 for v in spec.params.values())
        assert spec.signature.epsilon == (1,) * family_dimension(FamilyId.SU2)
        assert tuple(spec.params) == family_parameter_names(FamilyId.SU2)

    def test_unknown_parameter_rejected(self):
        with pytest.raises(StructureError, match="unknown parameter"):
            FamilySpec.create("su2", {"s14": 1})

    def test_unknown_family_rejected(self):
        for family in ("so3", 5, None):
            with pytest.raises(StructureError, match="unknown family .*; known families: su2, sl2r, "):
                FamilySpec.create(family)

    def test_float_signature_rejected(self):
        with pytest.raises(StructureError, match="causal characters"):
            FamilySpec.create("su2", {}, (1.0, -1.9, 1, 1, 1))

    def test_signature_length_checked(self):
        with pytest.raises(StructureError):
            FamilySpec.create("su2", signature=(1, 1, 1))

    def test_list_signature_accepted(self):
        # Search entries carry signatures as lists; the spec holds a MetricFrame of the same tuple.
        spec = FamilySpec.create("su2", {"b11": 1}, [1, -1, 1, 1, -1])
        assert spec == FamilySpec.create("su2", {"b11": 1}, (1, -1, 1, 1, -1))
        assert spec.signature.epsilon == (1, -1, 1, 1, -1)

    def test_rational_strings_accepted(self):
        spec = FamilySpec.create("sl2r", {"b11": "3/4", "rho": "-2"})
        assert spec.params["b11"] == F(3, 4)
        assert spec.params["rho"] == F(-2)

    def test_theta4_defaults_to_determined_value(self):
        spec = FamilySpec.create("su2xso2", {"x1": 1, "y2": 1, "rho": 2, "t24": 2})
        assert spec.params["theta4"] == F(0)  # rho*t14/(x1+y2) with t14 = 0
        # rho = t14 = 1, x1 = y2 = 1, y1 = 1, x2 = -1 (Riemannian class):
        # the residual relations force t24 = 0 and theta4 = rho*t14/2 = 1/2.
        spec2 = FamilySpec.create(
            "su2xso2", {"x1": 1, "y2": 1, "y1": 1, "x2": -1, "t14": 1, "rho": 1}
        )
        assert spec2.params["theta4"] == F(1, 2)
        build_family(spec2)  # feasible stratum with rho, t14, theta4 all nonzero

    def test_basis_names_and_dims(self):
        assert family_dimension(FamilyId.SU2xSU2) == 8
        assert family_basis_names(FamilyId.SU2xSO2) == ("A", "B", "C", "T", "X", "Y")


class TestClosedFormTheta:
    def test_zero_params_zero_theta(self):
        assert closed_form_theta(FamilySpec.create("su2")) == (F(0), F(0), F(0))

    def test_su2_substitution(self):
        # b11 = 2, c22 = 3, rho = 0: only the middle entry survives, = b11*c22/2.
        spec = FamilySpec.create("su2", {"b11": 2, "c22": 3})
        assert closed_form_theta(spec) == (F(0), F(3), F(0))

    def test_sl2r_sign_pattern(self):
        spec = FamilySpec.create("sl2r", {"rho": 1, "c12": 1})
        # theta1 = (-rho*c12 - b11*c21 + b21*c11)/2 = -1/2
        assert closed_form_theta(spec)[0] == F(-1, 2)

    def test_su2xsl2r_theta4(self):
        spec = FamilySpec.create("su2xsl2r", {"rho": 1, "t15": 1})
        theta = closed_form_theta(spec)
        assert theta[3] == F(-1, 2)
        assert theta[:3] == (F(0), F(0), F(0))

    def test_circle_family_length_four(self):
        spec = FamilySpec.create("su2xso2", {"b11": 1})
        assert len(closed_form_theta(spec)) == 4


class TestBuildFamily:
    def test_su2_zero_params_is_direct_product(self):
        setup = build_family(FamilySpec.create("su2"))
        for i in range(3):
            assert not any(setup.tensor.c[i][3])
            assert not any(setup.tensor.c[i][4])
        assert not any(setup.tensor.c[3][4])

    def test_su2xsu2_rows(self):
        setup = build_family(FamilySpec.create("su2xsu2", {"b11": 1, "s14": 1}))
        assert setup.tensor.c[0][6] == (F(0), F(-1), F(0), F(0), F(0), F(0), F(0), F(0))
        assert setup.tensor.c[1][6] == (F(1), F(0), F(0), F(0), F(0), F(0), F(0), F(0))
        assert setup.tensor.c[3][6] == (F(0), F(0), F(0), F(0), F(-1), F(0), F(0), F(0))
        assert setup.tensor.c[4][6] == (F(0), F(0), F(0), F(1), F(0), F(0), F(0), F(0))

    def test_sl2rxso2_t_row(self):
        spec = FamilySpec.create("sl2rxso2", {"x1": 1, "y2": 1, "c12": 1})
        setup = build_family(spec)
        row = setup.tensor.c[3][4]  # [T, X]
        assert row[0] == F(-1, 2)
        assert row[4] == F(1)

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_random_draws_satisfy_jacobi(self, family):
        rng = random.Random(f"families-{family.value}")
        for _ in range(25):
            if family in CIRCLE:
                sig = tuple(rng.choice((1, -1)) for _ in range(6))
                [(params, _)], _ = _draw_params(rng, family, 8, (sig[-2] * sig[-1],))
                spec = FamilySpec.create(family, params, sig)
            else:
                dim = family_dimension(family)
                sig = tuple(rng.choice((1, -1)) for _ in range(dim))
                params = {
                    name: F(rng.randint(-8, 8), rng.randint(1, 8))
                    for name in family_parameter_names(family)
                }
                spec = FamilySpec.create(family, params, sig)
            setup = build_family(spec)
            assert jacobi_residual(setup.tensor).is_zero

    def test_semisimple_tables_ignore_signature(self):
        params = {"b11": 1, "c22": F(2, 3), "rho": F(-1, 5)}
        t1 = build_family(FamilySpec.create("su2", params, (1,) * 5)).tensor
        t2 = build_family(FamilySpec.create("su2", params, (1, -1, -1, 1, -1))).tensor
        assert t1 == t2


class TestCircleConstraints:
    def test_lemma_relations_rejected(self):
        with pytest.raises(ConstraintError) as err:
            build_family(FamilySpec.create("su2xso2", {"x1": 1, "y2": 2}))
        assert err.value.relation == "x1 = y2"
        with pytest.raises(ConstraintError) as err:
            build_family(FamilySpec.create("su2xso2", {"x2": 1}))
        assert err.value.relation == "eps_X*x2 + eps_Y*y1 = 0"

    def test_residual_relation_rejected(self):
        # x1 = y2 = 1 with t14 = 1 violates t14*y2 = (rho + t24)*y1.
        with pytest.raises(ConstraintError) as err:
            build_family(FamilySpec.create("su2xso2", {"x1": 1, "y2": 1, "t14": 1}))
        assert "t14*y2" in err.value.relation

    def test_theta4_constraint_checked(self):
        # x1 = 0 stratum: theta4 free, but rho*t14 must vanish.
        with pytest.raises(ConstraintError) as err:
            build_family(FamilySpec.create("su2xso2", {"rho": 1, "t14": 1}))
        assert "theta4" in err.value.relation
        # and a wrong explicit theta4 on the determined stratum is rejected
        with pytest.raises(ConstraintError):
            build_family(
                FamilySpec.create("su2xso2", {"x1": 1, "y2": 1, "theta4": 5})
            )

    @pytest.mark.parametrize(
        "params, relation",
        [
            ({"x2": "9" * 4000}, "eps_X*x2 + eps_Y*y1 = 0"),
            # x2 = -y1 = N passes the second relation; the third has residual N^2.
            ({"x2": "9" * 4000, "y1": "-" + "9" * 4000, "t14": "9" * 4000}, "t14*x2 + rho*y2 - t24*x1 = 0"),
        ],
    )
    def test_huge_residual_is_echoed_shortened(self, params, relation):
        with pytest.raises(ConstraintError) as err:
            build_family(FamilySpec.create("su2xso2", params))
        assert err.value.relation == relation
        assert len(str(err.value)) <= 300

    def test_feasible_nontrivial_strata_build(self):
        # x1 != 0 with t24 = rho (y1 = x2 = 0).
        spec = FamilySpec.create(
            "su2xso2", {"x1": 2, "y2": 2, "rho": F(1, 3), "t24": F(1, 3), "b11": 1}
        )
        setup = build_family(spec)
        assert jacobi_residual(setup.tensor).is_zero
        # mixed-horizontal stratum with eps_X eps_Y = -1: t14 = t24, rho = 0.
        spec2 = FamilySpec.create(
            "su2xso2",
            {"x1": 1, "y2": 1, "y1": 1, "x2": 1, "t14": F(1, 2), "t24": F(1, 2)},
            signature=(1, 1, 1, 1, 1, -1),
        )
        assert jacobi_residual(build_family(spec2).tensor).is_zero

    def test_variant_switch(self):
        spec = FamilySpec.create("sl2rxso2", {"x1": 1, "y2": 1, "c11": 1})
        table = assemble_family_table(spec)
        assert jacobi_residual(table).is_zero
        assert not jacobi_residual(rejected_sl2rxso2_table(spec)).is_zero
        assert build_family(spec).tensor == table


class TestSo2ConformalityConstraint:
    @staticmethod
    def failed(eps_xy, x1, y1, x2, y2):
        params = FamilySpec.create("su2xso2", {"x1": x1, "y1": y1, "x2": x2, "y2": y2}).params
        return so2_failed_relation(params, *eps_xy)

    def test_plain_cases(self):
        assert self.failed((1, 1), 5, 0, 0, 5) is None
        assert self.failed((1, 1), 5, 3, 3, 5) == ("eps_X*x2 + eps_Y*y1 = 0", F(6))
        assert self.failed((1, 1), 5, 0, 0, 4) == ("x1 = y2", F(1))

    def test_mixed_signature_cancellation(self):
        assert self.failed((1, -1), 2, 3, 3, 2) is None
        assert self.failed((1, 1), 2, 3, 3, 2) is not None
        assert self.failed((-1, -1), 2, 3, 3, 2) == ("eps_X*x2 + eps_Y*y1 = 0", F(-6))


class TestClosedFormMinimal:
    def test_semisimple_always_minimal(self):
        for family in SEMISIMPLE:
            spec = FamilySpec.create(family, {"b11": 7, "rho": 3})
            assert closed_form_minimal(spec)

    def test_circle_families_need_zero_t(self):
        assert not closed_form_minimal(FamilySpec.create("su2xso2", {"t14": 1}))
        assert not closed_form_minimal(FamilySpec.create("sl2rxso2", {"t24": F(1, 2)}))
        assert closed_form_minimal(FamilySpec.create("sl2rxso2", {"b11": 9}))


class TestClosedFormTotallyGeodesic:
    def test_su2_riemannian_always(self):
        rng = random.Random(11)
        for _ in range(10):
            params = {
                name: F(rng.randint(-9, 9), rng.randint(1, 9))
                for name in family_parameter_names(FamilyId.SU2)
            }
            assert closed_form_totally_geodesic(FamilySpec.create("su2", params))

    def test_sl2r_riemannian_b11_breaks(self):
        assert not closed_form_totally_geodesic(FamilySpec.create("sl2r", {"b11": 1}))
        assert not closed_form_totally_geodesic(FamilySpec.create("sl2r", {"b21": 1}))
        assert not closed_form_totally_geodesic(FamilySpec.create("sl2r", {"c11": 1}))

    def test_sl2r_riemannian_c12_does_not_break(self):
        # The gamma2 pair pairs with eps_C - eps_B, which vanishes at the
        # Riemannian signature; verified against the geometric classifier.
        spec = FamilySpec.create("sl2r", {"c12": 1})
        assert closed_form_totally_geodesic(spec)
        assert classify(build_family(spec)).totally_geodesic

    def test_su2xsu2_mixed_signature(self):
        spec = FamilySpec.create("su2xsu2", {"b11": 1}, (1, -1, 1, 1, 1, 1, 1, 1))
        assert not closed_form_totally_geodesic(spec)

    def test_condition_labels_match_fast_predicate(self):
        rng = random.Random(12)
        for family in ALL_FAMILIES:
            for _ in range(10):
                dim = family_dimension(family)
                sig = tuple(rng.choice((1, -1)) for _ in range(dim))
                [(params, _)], _ = _draw_params(rng, family, 5, (sig[-2] * sig[-1],))
                spec = FamilySpec.create(family, params, sig)
                listed = all(v == 0 for _, v in totally_geodesic_conditions(spec))
                assert listed == closed_form_totally_geodesic(spec)

    def test_circle_family_x_conditions(self):
        # Nontrivially conformal: x1 != 0 couples to the block coefficients.
        spec = FamilySpec.create(
            "su2xso2", {"x1": 1, "y2": 1, "rho": 0, "t24": 0, "c12": 1}
        )
        assert not closed_form_totally_geodesic(spec)  # x1*c12 + y1*c22 = 1
        report = classify(build_family(spec))
        assert not report.totally_geodesic


class TestRawAnsatz:
    def test_only_circle_families(self):
        with pytest.raises(StructureError):
            build_so2_raw_setup(FamilyId.SU2, (1,) * 5, {})

    def test_float_signature_rejected(self):
        with pytest.raises(StructureError, match="causal characters"):
            build_so2_raw_setup(FamilyId.SU2xSO2, (1.0, 1, 1, 1, 1, 1), {})

    def test_list_signature_accepted(self):
        sig = [1, -1, 1, 1, -1, 1]
        setup = build_so2_raw_setup(FamilyId.SU2xSO2, sig, {"x1": 1, "y2": 1})
        assert setup == build_so2_raw_setup(FamilyId.SU2xSO2, tuple(sig), {"x1": 1, "y2": 1})
        assert setup.frame.epsilon == tuple(sig)

    def test_lemma_biconditional_spot_checks(self):
        rng = random.Random(13)
        for _ in range(20):
            sig = tuple(rng.choice((1, -1)) for _ in range(6))
            s = sig[-2] * sig[-1]
            coeffs = {
                name: F(rng.randint(-5, 5), rng.randint(1, 5))
                for name in ("t11", "t12", "t23", "theta1", "theta4", "a12", "b23", "rho")
            }
            x1 = F(rng.randint(-5, 5), rng.randint(1, 5))
            y1 = F(rng.randint(-5, 5), rng.randint(1, 5))
            good = dict(coeffs, x1=x1, y2=x1, y1=y1, x2=-s * y1)
            setup = build_so2_raw_setup(FamilyId.SU2xSO2, sig, good)
            assert classify(setup, require_jacobi=False).conformal
            bad = dict(coeffs, x1=x1, y2=x1 + 1, y1=y1, x2=-s * y1)
            setup_bad = build_so2_raw_setup(FamilyId.SL2RxSO2, sig, bad)
            assert not classify(setup_bad, require_jacobi=False).conformal
