"""Acceptance suite: the classification statements, machine-checked at full scale.

Each test prints one [A*] PASS/FAIL line.  Sample counts and exactness are
pinned here (everything is exact rational arithmetic, tolerance zero); run
with `pytest tests/test_acceptance.py -s` to see the lines.
"""

import itertools
import json
import random
from contextlib import contextmanager
from fractions import Fraction

import pytest

from liefol.algebra import jacobi_residual, killing_form
from liefol.cli import main
from liefol.families import (
    FamilyId,
    FamilySpec,
    build_family,
    build_so2_raw_setup,
    closed_form_theta,
    family_dimension,
)
from liefol.geometry import (
    classify,
    second_fundamental_form_vertical,
    second_fundamental_form_vertical_via_connection,
)
from liefol.linalg import is_negative_definite
from liefol.verifier import (
    SweepConfig,
    find_conjecture_counterexamples,
    oracle_conformal_from_definition,
    oracle_solve_theta,
    run_sweep,
    _draw_params,
    _sample_rng,
)

F = Fraction

ALL_FAMILIES = list(FamilyId)
SEMISIMPLE = (FamilyId.SU2, FamilyId.SL2R, FamilyId.SU2xSU2, FamilyId.SU2xSL2R)
CIRCLE = (FamilyId.SU2xSO2, FamilyId.SL2RxSO2)

SEED = 20240731


@contextmanager
def criterion(label: str, detail: str = ""):
    try:
        yield
    except BaseException:
        print(f"[{label}] FAIL {detail}")
        raise
    print(f"[{label}] PASS {detail}")


def draw_spec(family: FamilyId, rng: random.Random, signature, bound: int = 10) -> FamilySpec:
    [(params, _)], _ = _draw_params(rng, family, bound, (signature[-2] * signature[-1],))
    return FamilySpec.create(family, params, signature)


# -- shared heavy sweeps ------------------------------------------------------

@pytest.fixture(scope="module")
def semisimple_reports():
    return {
        family: run_sweep(
            SweepConfig(family=family, samples=1000, seed=SEED, signature_mode="all")
        )
        for family in SEMISIMPLE
    }


@pytest.fixture(scope="module")
def riemannian_reports():
    return {
        family: run_sweep(
            SweepConfig(
                family=family, samples=1000, seed=SEED + 1, signature_mode="riemannian-only"
            )
        )
        for family in (FamilyId.SU2, FamilyId.SU2xSU2, FamilyId.SL2R)
    }


@pytest.fixture(scope="module")
def circle_reports():
    return {
        family: run_sweep(
            SweepConfig(family=family, samples=500, seed=SEED + 2, signature_mode="all")
        )
        for family in CIRCLE
    }


# -- criterion 1: Jacobi closure ---------------------------------------------

def test_a1_jacobi_closure_all_families():
    """1000 seeded draws per family, quantified over the full signature
    enumeration: the constructed tables never depend on the causal characters
    beyond the eps_X*eps_Y class (circle families, through x2), which is
    asserted explicitly; each distinct table has Jacobi residual zero."""
    with criterion("A1", "jacobi closure, 6 families x 1000 draws x full signature set"):
        for family in ALL_FAMILIES:
            dim = family_dimension(family)
            probe_signatures = (
                (1,) * dim,
                tuple(1 if i % 2 == 0 else -1 for i in range(dim)),
                (-1,) * (dim - 2) + (1, -1),
            )
            rng = random.Random(f"a1-{family.value}")
            for _ in range(1000):
                if family in CIRCLE:
                    draws, _ = _draw_params(rng, family, 10, (1, -1))
                    for params, (s,) in draws:
                        sig_a = (1,) * (dim - 1) + (s,)
                        sig_b = (-1,) * 3 + (1,) * (dim - 4) + (s,)
                        spec_a = FamilySpec.create(family, params, sig_a)
                        spec_b = FamilySpec.create(family, params, sig_b)
                        tensor = build_family(spec_a).tensor
                        # same eps_X*eps_Y class => identical table
                        assert build_family(spec_b).tensor == tensor
                        assert jacobi_residual(tensor).is_zero
                else:
                    [(params, _)], _ = _draw_params(rng, family, 10, (1, -1))
                    tensors = {
                        build_family(FamilySpec.create(family, params, sig)).tensor
                        for sig in probe_signatures
                    }
                    assert len(tensors) == 1  # table independent of the signature
                    assert jacobi_residual(next(iter(tensors))).is_zero


def test_a1_literal_signature_cross_product():
    """Direct (non-factorized) check on a smaller draw count: 20 draws x
    every signature assignment, each built and residual-checked literally."""
    with criterion("A1-literal", "20 draws x 2^dim signatures per family"):
        for family in ALL_FAMILIES:
            dim = family_dimension(family)
            rng = random.Random(f"a1lit-{family.value}")
            for _ in range(20):
                draws, _ = _draw_params(rng, family, 8, (1, -1))
                by_class = {s: params for params, classes in draws for s in classes}
                for sig in itertools.product((1, -1), repeat=dim):
                    spec = FamilySpec.create(family, by_class[sig[-2] * sig[-1]], sig)
                    assert jacobi_residual(build_family(spec).tensor).is_zero


# -- criterion 2: semisimple classification theorems --------------------------

def test_a2_semisimple_theorems(semisimple_reports):
    """Conformal, semi-Riemannian and minimal hold on every sampled instance;
    totally geodesic agrees with the closed-form condition lists in both
    directions, zero disagreements."""
    with criterion("A2", "4 semisimple families x 1000 draws x all signatures"):
        for family, report in semisimple_reports.items():
            expected_cases = 1000 * 2 ** family_dimension(family)
            assert report.total_cases == expected_cases
            assert report.disagreements == ()
            assert report.agreements == report.total_cases
            assert report.flag_counts["conformal"] == report.total_cases
            assert report.flag_counts["semiRiemannian"] == report.total_cases
            assert report.flag_counts["minimal"] == report.total_cases
            # the biconditional is non-vacuous: both verdicts occur
            assert 0 < report.flag_counts["totallyGeodesic"] < report.total_cases


# -- criterion 3: Riemannian specialization ------------------------------------

def test_a3_riemannian_compact_families_totally_geodesic(riemannian_reports):
    with criterion("A3", "su2 and su2xsu2 Riemannian: 100% totally geodesic"):
        for family in (FamilyId.SU2, FamilyId.SU2xSU2):
            report = riemannian_reports[family]
            assert report.total_cases == 1000
            assert report.disagreements == ()
            assert report.flag_counts["totallyGeodesic"] == report.total_cases


def test_a3_sl2r_riemannian_obstructions(riemannian_reports):
    """At the all-positive signature the sl2r family is totally geodesic iff
    b11 = b21 = c11 = c21 = 0; in particular any nonzero b11 or c11 breaks
    geodesy (checked per draw), and the sweep biconditional holds."""
    report = riemannian_reports[FamilyId.SL2R]
    with criterion("A3", "sl2r Riemannian: obstruction set {b11, b21, c11, c21}"):
        assert report.disagreements == ()
        sig = (1,) * 5
        refuted = 0
        for index in range(1000):
            rng = _sample_rng(SEED + 1, index)
            [(params, _)], _ = _draw_params(rng, FamilyId.SL2R, 10, (1,))
            spec = FamilySpec.create(FamilyId.SL2R, params, sig)
            tg = classify(build_family(spec)).totally_geodesic
            if params["b11"] or params["c11"]:
                assert not tg
            assert tg == (
                not (params["b11"] or params["b21"] or params["c11"] or params["c21"])
            )
            if params["c12"] and not any(
                params[k] for k in ("b11", "b21", "c11", "c21")
            ):
                refuted += 1
        assert refuted > 0  # the sampled set itself witnesses the c12 non-obstruction


@pytest.mark.xfail(
    strict=True,
    reason=(
        "documented defect: c12 alone does not obstruct totally geodesic at the "
        "Riemannian signature (sff_V(B,C) pairs c12 with eps_C - eps_B = 0); "
        "the exact classifier and the condition-list biconditional both refute "
        "the claim that any nonzero c12 forces totallyGeodesic = false"
    ),
)
def test_a3_literal_c12_clause():
    with criterion("A3-c12-literal", "claim: c12 != 0 forces non-geodesic at eps = +1"):
        spec = FamilySpec.create("sl2r", {"c12": 1})
        report = classify(build_family(spec))
        assert not report.totally_geodesic


# -- criterion 4: circle-factor families ---------------------------------------

def test_a4_circle_family_biconditionals(circle_reports):
    """minimal <=> t14 = t24 = 0 and the totally-geodesic condition list,
    exact in both directions over 500 draws x all 64 signatures."""
    with criterion("A4", "su2xso2 and sl2rxso2: 500 draws x 64 signatures"):
        for family, report in circle_reports.items():
            assert report.total_cases == 500 * 64
            assert report.disagreements == ()
            assert report.flag_counts["conformal"] == report.total_cases
            # both sides of the minimality biconditional occur
            assert 0 < report.flag_counts["minimal"] < report.total_cases
            # nontrivially conformal draws (x1 != 0) were sampled
            assert report.flag_counts["semiRiemannian"] < report.total_cases


# -- criterion 5: conformality constraint biconditional ------------------------

def test_a5_raw_table_conformality_biconditional():
    """Raw six-dimensional tables: x1 = y2 and eps_X x2 + eps_Y y1 = 0 holds
    => conformal; either relation broken => not conformal.  100 cases per
    direction, zero failures."""
    aux_names = (
        "a12", "a13", "a24", "b13", "b14", "b22", "c11", "c23",
        "t11", "t12", "t13", "t14", "t21", "t22", "t23", "t24",
        "rho", "theta1", "theta2", "theta3", "theta4",
    )
    with criterion("A5", "100 satisfying + 100 violating raw tables"):
        rng = random.Random("a5")
        for case in range(200):
            family = FamilyId.SU2xSO2 if case % 2 == 0 else FamilyId.SL2RxSO2
            sig = tuple(rng.choice((1, -1)) for _ in range(6))
            s = sig[-2] * sig[-1]
            coeffs = {
                name: F(rng.randint(-6, 6), rng.randint(1, 6)) for name in aux_names
            }
            x1 = F(rng.randint(-6, 6), rng.randint(1, 6))
            y1 = F(rng.randint(-6, 6), rng.randint(1, 6))
            satisfy = case < 100
            if satisfy:
                coeffs.update(x1=x1, y2=x1, y1=y1, x2=-s * y1)
            else:
                delta = F(rng.randint(1, 6), rng.randint(1, 6))
                if case % 2 == 0:
                    coeffs.update(x1=x1, y2=x1 + delta, y1=y1, x2=-s * y1)
                else:
                    coeffs.update(x1=x1, y2=x1, y1=y1, x2=-s * y1 + delta)
            setup = build_so2_raw_setup(family, sig, coeffs)
            report = classify(setup, require_jacobi=False)
            assert report.conformal == satisfy


# -- criterion 6: conjecture counterexamples -----------------------------------

def test_a6_totally_geodesic_conjecture_counterexamples(capsys):
    """A verified compact-type counterexample exists and the command-line
    search surfaces it; the named instance (eps_B = -eps_A, b11 = 1) has
    sff_V(A, B) = -eps_X X."""
    with criterion("A6", "verified counterexamples + named instance"):
        spec = FamilySpec.create("su2", {"b11": 1}, (1, -1, 1, 1, 1))
        setup = build_family(spec)
        report = classify(setup)
        assert report.conformal and report.semi_riemannian and report.minimal
        assert not report.totally_geodesic
        assert report.bv[(0, 1)] == (F(0), F(0), F(0), F(-1), F(0))
        assert is_negative_definite(killing_form(setup.tensor, setup.vertical))

        config = SweepConfig(
            family=FamilyId.SU2,
            samples=40,
            seed=SEED + 3,
            signature_mode="fixed",
            fixed_signatures=((1, -1, 1, 1, 1),),
        )
        hits = find_conjecture_counterexamples(config)
        assert hits
        for entry in hits:
            assert entry["compactType"] is True
            assert entry["minimal"] is True

        code = main(
            [
                "counterexample", "su2",
                "--samples", "40",
                "--seed", str(SEED + 3),
                "--signatures", "1,-1,1,1,1",
                "--max-print", "1",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "counterexample 1:" in out
        assert "compact-type vertical: yes" in out


def test_a6_minimality_conjecture_consistency(
    semisimple_reports, riemannian_reports, circle_reports
):
    """No semisimple-vertical sweep produced a conformal non-minimal case."""
    with criterion("A6", "minimality conjecture: zero counterexamples everywhere"):
        for report in semisimple_reports.values():
            assert report.minimality_counterexample_count == 0
        for report in riemannian_reports.values():
            assert report.minimality_counterexample_count == 0
        # circle families are outside the conjecture premise; still recorded as zero
        for report in circle_reports.values():
            assert report.minimality_counterexample_count == 0


# -- criterion 7: oracle equivalence -------------------------------------------

def test_a7_theta_oracle_equivalence():
    """closed_form_theta equals the Jacobi linear-solve oracle on every
    sampled spec (unique cases exactly; one-dimensional theta4 line for the
    degenerate circle stratum, matching on the determined coordinates)."""
    with criterion("A7", "theta oracle, 120 specs per family"):
        for family in ALL_FAMILIES:
            rng = random.Random(f"a7-{family.value}")
            for _ in range(120):
                dim = family_dimension(family)
                sig = tuple(rng.choice((1, -1)) for _ in range(dim))
                spec = draw_spec(family, rng, sig, bound=8)
                sol = oracle_solve_theta(spec)
                closed = closed_form_theta(spec)
                if sol.status == "unique":
                    assert sol.theta == closed
                else:
                    assert sol.status == "affine" and sol.dimension == 1
                    assert sol.free_directions[0][:3] == (F(0), F(0), F(0))
                    assert sol.theta[:3] == closed[:3]


def test_a7_vertical_form_dual_route():
    """sff_V from the Koszul connection projection equals the direct bracket
    formula entrywise on every sampled setup."""
    with criterion("A7", "sff_V dual route, 60 setups per family"):
        for family in ALL_FAMILIES:
            rng = random.Random(f"a7bv-{family.value}")
            for _ in range(60):
                dim = family_dimension(family)
                sig = tuple(rng.choice((1, -1)) for _ in range(dim))
                setup = build_family(draw_spec(family, rng, sig, bound=8))
                direct = second_fundamental_form_vertical(setup)
                assert direct == second_fundamental_form_vertical_via_connection(
                    setup, require_jacobi=False
                )


def test_a7_conformality_criteria_equivalence():
    """The frame criteria used by classify agree with the definition-level
    'sff_H = g (x) V for a single vertical V' check, on family members and on
    raw tables both conformal and not."""
    with criterion("A7", "conformality criteria vs definition, incl. 100 raw tables"):
        for family in ALL_FAMILIES:
            rng = random.Random(f"a7conf-{family.value}")
            for _ in range(40):
                dim = family_dimension(family)
                sig = tuple(rng.choice((1, -1)) for _ in range(dim))
                setup = build_family(draw_spec(family, rng, sig, bound=8))
                report = classify(setup, require_jacobi=False)
                by_def, vec = oracle_conformal_from_definition(setup)
                assert by_def == report.conformal
                if by_def:
                    assert vec == report.conformal_vector
        rng = random.Random("a7raw")
        for case in range(100):
            sig = tuple(rng.choice((1, -1)) for _ in range(6))
            s = sig[-2] * sig[-1]
            x1 = F(rng.randint(-5, 5), rng.randint(1, 5))
            y1 = F(rng.randint(-5, 5), rng.randint(1, 5))
            coeffs = {"t12": F(rng.randint(-5, 5)), "theta2": F(rng.randint(-5, 5))}
            if case % 2 == 0:
                coeffs.update(x1=x1, y2=x1, y1=y1, x2=-s * y1)
            else:
                coeffs.update(x1=x1, y2=x1 + 1, y1=y1, x2=-s * y1)
            setup = build_so2_raw_setup(FamilyId.SU2xSO2, sig, coeffs)
            report = classify(setup, require_jacobi=False)
            by_def, _ = oracle_conformal_from_definition(setup)
            assert by_def == report.conformal == (case % 2 == 0)


# -- criterion 8: determinism ---------------------------------------------------

def test_a8_sweep_determinism(tmp_path):
    """Two CLI runs of the same seeded sweep emit byte-identical JSON."""
    with criterion("A8", "sweep su2 --samples 1000 --seed 42, twice"):
        p1 = str(tmp_path / "run1.json")
        p2 = str(tmp_path / "run2.json")
        for path in (p1, p2):
            code = main(
                ["sweep", "su2", "--samples", "1000", "--seed", "42", "--json", path]
            )
            assert code == 0
        b1 = open(p1, "rb").read()
        b2 = open(p2, "rb").read()
        assert b1 == b2
        doc = json.loads(b1)
        assert doc["totalCases"] == 32000
        assert doc["agreements"] == 32000
