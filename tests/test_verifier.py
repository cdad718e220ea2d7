"""Theta oracle, sweep harness, counterexample search."""

import dataclasses
import itertools
import json
import random
from fractions import Fraction

import pytest

from liefol import families, verifier
from liefol.algebra import (
    FoliationSetup,
    MetricFrame,
    StructureError,
    format_scalar,
    jacobi_residual,
    killing_form,
)
from liefol.families import (
    CIRCLE_FAMILIES,
    FamilyId,
    FamilySpec,
    _conditions_hold,
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
from liefol.geometry import (
    FrameFreeHorizontal,
    FrameFreeVertical,
    classify,
    second_fundamental_form_horizontal,
    second_fundamental_form_vertical,
    second_fundamental_form_vertical_via_connection,
)
from liefol.linalg import is_negative_definite, solve_linear_system
from liefol.verifier import (
    ReverificationError,
    SamplingError,
    SweepConfig,
    ThetaSolution,
    enumerate_signatures,
    find_conjecture_counterexamples,
    oracle_conformal_from_definition,
    oracle_solve_theta,
    run_sweep,
    _draw_cases,
    _draw_params,
    _sample_rng,
    _signature_masks,
)
from test_families import rejected_sl2rxso2_table, theta_table

F = Fraction


class TestThetaOracle:
    def test_zero_params_unique_zero(self):
        sol = oracle_solve_theta(FamilySpec.create("su2"))
        assert sol.status == "unique"
        assert sol.theta == (F(0), F(0), F(0))

    def test_su2_matches_closed_form(self):
        spec = FamilySpec.create("su2", {"b11": 2, "c22": 3})
        sol = oracle_solve_theta(spec)
        assert sol.status == "unique"
        assert sol.theta == closed_form_theta(spec) == (F(0), F(3), F(0))

    def test_circle_family_free_direction(self):
        spec = FamilySpec.create("su2xso2", {"b11": 1, "c22": F(1, 2), "t14": 1})
        sol = oracle_solve_theta(spec)
        assert sol.status == "affine"
        assert sol.dimension == 1
        assert sol.free_directions == ((F(0), F(0), F(0), F(1)),)
        assert sol.theta[:3] == closed_form_theta(spec)[:3]

    def test_circle_family_determined_theta4(self):
        spec = FamilySpec.create(
            "su2xso2", {"x1": 1, "y2": 1, "y1": 1, "x2": -1, "t14": 1, "rho": 1}
        )
        sol = oracle_solve_theta(spec)
        assert sol.status == "unique"
        assert sol.theta[3] == F(1, 2) == spec.params["theta4"]

    def test_infeasible_parameters_detected(self):
        # x1 = 0 stratum with x2 = 1, y1 = -1 (Riemannian lemma ok), t14 = 1:
        # the X component of the (T, X, Y) identity cannot be fixed by theta.
        spec = FamilySpec.create("su2xso2", {"x2": 1, "y1": -1, "t14": 1})
        assert oracle_solve_theta(spec) == ThetaSolution("infeasible", None, ())

    def test_sl2rxso2_rejected_variant_infeasible(self):
        spec = FamilySpec.create("sl2rxso2", {"x1": 1, "y2": 1, "c11": 1})
        assert oracle_solve_theta(spec).status != "infeasible"
        assert dense_theta_solution(spec, rejected_sl2rxso2_table).status == "infeasible"

    @pytest.mark.parametrize("family", list(FamilyId))
    def test_matches_closed_form_on_random_specs(self, family):
        rng = random.Random(f"oracle-{family.value}")
        for _ in range(8):
            dim = family_dimension(family)
            sig = tuple(rng.choice((1, -1)) for _ in range(dim))
            [(params, _)], _ = _draw_params(rng, family, 6, (sig[-2] * sig[-1],))
            spec = FamilySpec.create(family, params, sig)
            sol = oracle_solve_theta(spec)
            closed = closed_form_theta(spec)
            if sol.status == "unique":
                assert sol.theta == closed
            else:
                assert sol.status == "affine"
                assert sol.dimension == 1
                # the closed form lies on the solution line (theta4 direction)
                assert sol.theta[:3] == closed[:3]
                assert sol.free_directions[0][:3] == (F(0), F(0), F(0))


def dense_theta_solution(spec, build=theta_table):
    """Reference for oracle_solve_theta: one equation per component of every triple i < j < k.

    `build(spec, theta)` assembles the tables; the default builds the oracle's.
    """

    def flat(tensor):
        lookup = dict(jacobi_residual(tensor).violations)
        dim = tensor.dim
        zero_row = (F(0),) * dim
        out = []
        for i in range(dim):
            for j in range(i + 1, dim):
                for k in range(j + 1, dim):
                    out.extend(lookup.get((i, j, k), zero_row))
        return out

    m = family_dimension(spec.family) - 2
    base = flat(build(spec, (F(0),) * m))
    columns = []
    for pos in range(m):
        probe = tuple(F(1) if t == pos else F(0) for t in range(m))
        probed = flat(build(spec, probe))
        columns.append([f - b for f, b in zip(probed, base)])
    rows = [[columns[c][r] for c in range(m)] for r in range(len(base))]
    solution = solve_linear_system(rows, [-b for b in base])
    return ThetaSolution(solution.status, solution.particular, solution.nullspace)


class TestThetaOracleMatchesDenseSystem:
    """The oracle's system of nonzero residual entries has the dense system's solution set."""

    @pytest.mark.parametrize("family", list(FamilyId))
    def test_seeded_members(self, family):
        rng = random.Random(f"dense-theta-{family.value}")
        dim = family_dimension(family)
        statuses = set()
        for _ in range(6):
            sig = tuple(rng.choice((1, -1)) for _ in range(dim))
            [(params, _)], _ = _draw_params(rng, family, 6, (sig[-2] * sig[-1],))
            spec = FamilySpec.create(family, params, sig)
            solution = oracle_solve_theta(spec)
            assert solution == dense_theta_solution(spec)
            statuses.add(solution.status)
        assert "unique" in statuses

    @pytest.mark.parametrize(
        "family, params, build, status",
        [
            # sl2r x so2 with the rejected [T, .] sign pattern.
            ("sl2rxso2", {"x1": 1, "y2": 1, "c11": 1}, rejected_sl2rxso2_table, "infeasible"),
            # The circle stratum x1 = 0: theta4 is free.
            ("su2xso2", {"b11": 1, "c22": F(1, 2), "t14": 1}, theta_table, "affine"),
            ("sl2rxso2", {"b21": 2, "c12": F(-1, 3), "rho": 1}, theta_table, "affine"),
            ("su2xso2", {"x2": 1, "y1": -1, "t14": 1}, theta_table, "infeasible"),
        ],
        # "ty" marks the rejected pattern's table and "tx" the oracle's.
        ids=[
            "sl2rxso2-params0-ty-infeasible",
            "su2xso2-params1-tx-affine",
            "sl2rxso2-params2-tx-affine",
            "su2xso2-params3-tx-infeasible",
        ],
    )
    def test_named_strata(self, family, params, build, status):
        spec = FamilySpec.create(family, params)
        solution = dense_theta_solution(spec, build)
        assert solution.status == status
        if build is theta_table:
            assert oracle_solve_theta(spec) == solution


class TestSignatureEnumeration:
    def test_all_mode_counts(self):
        config = SweepConfig(family=FamilyId.SU2, samples=1, seed=0)
        assert len(enumerate_signatures(config)) == 32

    def test_riemannian_mode(self):
        config = SweepConfig(
            family=FamilyId.SU2, samples=1, seed=0, signature_mode="riemannian-only"
        )
        assert enumerate_signatures(config) == ((1, 1, 1, 1, 1),)

    def test_fixed_mode_validation(self):
        with pytest.raises(StructureError):
            SweepConfig(family=FamilyId.SU2, samples=1, seed=0, signature_mode="fixed")
        with pytest.raises(StructureError):
            SweepConfig(
                family=FamilyId.SU2,
                samples=1,
                seed=0,
                signature_mode="fixed",
                fixed_signatures=((1, 1, 1),),
            )

    def test_config_validation(self):
        with pytest.raises(StructureError):
            SweepConfig(family=FamilyId.SU2, samples=0, seed=0)
        with pytest.raises(StructureError):
            SweepConfig(family=FamilyId.SU2, samples=1, seed=0, parameter_range=0)
        # run_sweep needs a FamilyId and hashable signatures.
        with pytest.raises(StructureError):
            SweepConfig(family="su2", samples=1, seed=0)
        with pytest.raises(StructureError):
            SweepConfig(family="bogus", samples=1, seed=0)
        for fixed in (([1, 1, 1, 1, 1],), [(1, 1, 1, 1, 1)], (5,)):
            with pytest.raises(StructureError):
                SweepConfig(
                    family=FamilyId.SU2, samples=1, seed=0, signature_mode="fixed", fixed_signatures=fixed
                )
        with pytest.raises(StructureError):
            SweepConfig(family=FamilyId.SU2, samples=1, seed=0, fixed_signatures=[])

    def test_config_rejects_a_repeated_signature(self):
        # Each of its cases would be counted twice.
        sig = (1, -1, 1, 1, 1, 1, 1, 1)
        with pytest.raises(StructureError) as err:
            SweepConfig(
                family=FamilyId.SU2xSU2, samples=1, seed=0, signature_mode="fixed",
                fixed_signatures=(sig, (1,) * 8, sig),
            )
        assert str(err.value) == "fixed signature (1, -1, 1, 1, 1, 1, ...) given more than once"

    @pytest.mark.parametrize("value", [True, False, 1.0, 2.5])
    @pytest.mark.parametrize("field", ["samples", "seed", "parameter_range"])
    def test_config_rejects_bool_and_float_fields(self, field, value):
        # seed=True would key its streams as "True:0", a float seed fails only in to_json.
        fields = {"samples": 1, "seed": 1, "parameter_range": 10, field: value}
        with pytest.raises(StructureError, match=f"{field} must be an int, got {value!r}"):
            SweepConfig(family=FamilyId.SU2, **fields)


class TestRunSweep:
    def test_su2_all_signatures_agrees(self):
        report = run_sweep(SweepConfig(family=FamilyId.SU2, samples=60, seed=3))
        assert report.total_cases == 60 * 32
        assert report.agreements == report.total_cases
        assert report.disagreements == ()
        assert report.flag_counts["conformal"] == report.total_cases
        assert report.flag_counts["semiRiemannian"] == report.total_cases
        assert report.flag_counts["minimal"] == report.total_cases
        assert report.minimality_counterexample_count == 0

    def test_su2_riemannian_only_all_geodesic(self):
        report = run_sweep(
            SweepConfig(
                family=FamilyId.SU2, samples=80, seed=4, signature_mode="riemannian-only"
            )
        )
        assert report.flag_counts["totallyGeodesic"] == report.total_cases
        assert report.tg_counterexample_count == 0

    def test_fixed_split_signature_yields_counterexamples(self):
        config = SweepConfig(
            family=FamilyId.SU2,
            samples=40,
            seed=5,
            signature_mode="fixed",
            fixed_signatures=((1, -1, 1, 1, 1),),
        )
        report = run_sweep(config)
        assert report.disagreements == ()
        assert report.tg_counterexample_count > 0
        entry = report.tg_counterexamples[0]
        assert entry["compactType"] is True
        assert entry["violatedCondition"] is not None

    def test_circle_family_minimality_biconditional_exercised(self):
        report = run_sweep(SweepConfig(family=FamilyId.SU2xSO2, samples=60, seed=6))
        assert report.disagreements == ()
        assert 0 < report.flag_counts["minimal"] < report.total_cases
        assert report.resampled_draws >= 0

    def test_closed_form_mismatches_are_recorded(self, monkeypatch):
        real = verifier.closed_form_minimal
        monkeypatch.setattr(verifier, "closed_form_minimal", lambda spec: not real(spec))
        report = run_sweep(SweepConfig(family=FamilyId.SU2xSO2, samples=2, seed=4))
        assert report.agreements == 0
        assert len(report.disagreements) == report.total_cases == 2 * 64
        for entry in report.disagreements:
            assert entry["geometric"]["minimal"] != entry["closedForm"]["minimal"]
        # A closed form that calls every case totally geodesic disagrees exactly
        # where the classifier does not.
        monkeypatch.setattr(verifier, "closed_form_minimal", real)
        monkeypatch.setattr(verifier, "_conditions_hold", lambda conditions, minus, within: within)
        report = run_sweep(SweepConfig(family=FamilyId.SU2, samples=3, seed=4))
        not_geodesic = report.total_cases - report.flag_counts["totallyGeodesic"]
        assert 0 < len(report.disagreements) == not_geodesic
        assert all(not e["geometric"]["totallyGeodesic"] for e in report.disagreements)
        assert all(e["closedForm"]["totallyGeodesic"] for e in report.disagreements)

    def test_determinism_byte_identical(self):
        config = SweepConfig(family=FamilyId.SL2R, samples=40, seed=42)
        a = run_sweep(config).to_json()
        b = run_sweep(config).to_json()
        assert a == b

    def test_json_fields_pinned(self):
        report = run_sweep(SweepConfig(family=FamilyId.SU2, samples=5, seed=0))
        doc = json.loads(report.to_json())
        for key in (
            "totalCases",
            "agreements",
            "disagreements",
            "conjectureCounterexamples",
            "minimalityCounterexamples",
        ):
            assert key in doc
        assert doc["agreements"] + len(doc["disagreements"]) == doc["totalCases"]


def json_dumps_reference(report) -> str:
    """What SweepReport.to_json must equal byte for byte."""
    return json.dumps(report.to_json_dict(), indent=2) + "\n"


def modes(family):
    dim = family_dimension(family)
    fixed = ((1,) * dim, (1, -1) + (1,) * (dim - 2), (-1,) * dim)
    return [
        {"signature_mode": "all"},
        {"signature_mode": "riemannian-only"},
        {"signature_mode": "fixed", "fixed_signatures": fixed},
    ]


class TestReportJson:
    """to_json writes what json.dumps(..., indent=2) writes, without its pure-Python encoder."""

    @pytest.mark.parametrize("family", list(FamilyId))
    def test_real_sweeps_in_every_signature_mode(self, family):
        samples = 1 if family_dimension(family) == 8 else 4
        for mode in modes(family):
            report = run_sweep(SweepConfig(family=family, samples=samples, seed=21, **mode))
            assert report.to_json() == json_dumps_reference(report), mode

    def test_real_sweeps_with_every_entry_kind(self, monkeypatch):
        # Flipping closed_form_minimal makes every case a disagreement; split
        # signatures of su2 also record witnessed and unwitnessed conjecture entries.
        real = verifier.closed_form_minimal
        monkeypatch.setattr(verifier, "closed_form_minimal", lambda spec: not real(spec))
        report = run_sweep(SweepConfig(family=FamilyId.SU2, samples=6, seed=5))
        assert report.disagreements and report.tg_counterexamples
        assert report.to_json() == json_dumps_reference(report)
        report = run_sweep(SweepConfig(family=FamilyId.SU2xSO2, samples=2, seed=4))
        assert report.disagreements
        assert report.to_json() == json_dumps_reference(report)

    @staticmethod
    def hand_built(**changes):
        params = {"b11": "1/2", "c12": "-3", "quote\"back\\slash": "\u00e9\u2202\U0001d49c"}
        signature = [1, -1, 1, 1, 1]
        flags = {"conformal": True, "semiRiemannian": False, "minimal": True, "totallyGeodesic": False}
        fields = dict(
            config=SweepConfig(
                family=FamilyId.SU2, samples=3, seed=-7, signature_mode="fixed",
                fixed_signatures=((1, -1, 1, 1, 1), (1, 1, 1, 1, 1)),
            ),
            signatures_per_draw=2,
            total_cases=6,
            agreements=5,
            disagreements=(
                {"family": "su2", "params": params, "signature": signature,
                 "geometric": flags, "closedForm": dict(flags, minimal=False)},
            ),
            tg_counterexamples=(
                {"family": "su2", "params": params, "signature": signature,
                 "violatedCondition": "(eps_C - eps_B) * c12 \"\\\n\t\u00e9",
                 "witnessPair": ["B", "C"], "witnessValue": ["0", "0", "0", "5/3", "-2/7"],
                 "compactType": True},
                # No witness, no violated condition, and blocks equal to the first
                # entry's but not shared with it.
                {"family": "su2", "params": dict(params), "signature": list(signature),
                 "violatedCondition": None, "compactType": False},
                {},
                {"family": "su2", "params": {}, "signature": [], "nested": [[1, [True, None]], {"a": {}}]},
            ),
            tg_counterexample_count=4,
            minimality_counterexamples=(
                {"family": "su2", "params": params, "signature": [1, 1, 1, 1, 1],
                 "meanCurvature": ["0", "0", "0", "1/3", "-1"]},
            ),
            minimality_counterexample_count=1,
            resampled_draws=0,
            flag_counts={"conformal": 6, "semiRiemannian": 0, "minimal": 5, "totallyGeodesic": 0},
        )
        fields.update(changes)
        return verifier.SweepReport(**fields)

    def test_hand_built_reports(self):
        report = self.hand_built()
        text = report.to_json()
        assert text == json_dumps_reference(report)
        # ensure_ascii escaping: non-ASCII characters travel as \u escapes.
        assert text.isascii() and "\\u00e9" in text and "\\ud835\\udc9c" in text
        assert '"quote\\"back\\\\slash"' in text
        empty = self.hand_built(
            config=SweepConfig(family=FamilyId.SL2RxSO2, samples=1, seed=0),
            disagreements=(), tg_counterexamples=(), minimality_counterexamples=(), flag_counts={},
        )
        assert empty.to_json() == json_dumps_reference(empty)
        assert '"disagreements": [],' in empty.to_json()

    def test_non_json_values_are_rejected(self):
        report = self.hand_built(tg_counterexamples=({"value": Fraction(1, 2)},))
        with pytest.raises(TypeError):
            report.to_json()

    def test_shared_blocks_are_written_once(self, monkeypatch):
        config = SweepConfig(family=FamilyId.SU2, samples=6, seed=5)
        report = run_sweep(config)
        entries = report.tg_counterexamples + report.minimality_counterexamples
        # Entries share one params block per draw and one signature block per signature.
        assert len({id(entry["params"]) for entry in entries}) <= config.samples
        assert len({id(entry["signature"]) for entry in entries}) <= len(enumerate_signatures(config))
        written = []
        real = verifier._json_block

        def recording(value, indent):
            if indent == " " * 6:
                written.append(id(value))
            return real(value, indent)

        monkeypatch.setattr(verifier, "_json_block", recording)
        assert report.to_json() == json_dumps_reference(report)
        assert len(written) == len(set(written))
        for key in ("params", "signature"):
            assert {id(entry[key]) for entry in entries} <= set(written)


def reference_totally_geodesic(vertical, eps):
    """Total geodesy of one frame, read off its sff_V as the sweep did before its signature masks."""
    return not any(any(vec) for vec in vertical.form(eps).values())


def first_nonzero_condition(spec):
    """The label of the first nonzero totally_geodesic_conditions value in spec's frame, else None."""
    return next((label for label, value in totally_geodesic_conditions(spec) if value), None)


def reference_run_sweep(config):
    """run_sweep as a loop over every signature of every draw, kept as the reference for the masks."""
    family = config.family
    signatures = enumerate_signatures(config)
    names = family_basis_names(family)
    track_conjectures = family not in CIRCLE_FAMILIES
    compact_type = family in verifier.COMPACT_FAMILIES
    disagreements, tg_details, minimality_details = [], [], []
    tg_count = minimality_count = resampled = 0
    flags = dict.fromkeys(("conformal", "semiRiemannian", "minimal", "totallyGeodesic"), 0)
    for attempts, cases in _draw_cases(config):
        resampled += attempts
        for eps in signatures:
            case = cases[eps[-2] * eps[-1]]
            conformal, semi, minimal = case.flags
            geodesic = reference_totally_geodesic(case.vertical, eps)
            violated = first_nonzero_condition(FamilySpec.create(family, case.params_text, eps))
            for key, value in zip(flags, (conformal, semi, minimal, geodesic)):
                flags[key] += value
            head = {"family": family.value, "params": case.params_text, "signature": list(eps)}
            if not case.agrees or geodesic != (violated is None):
                geometric = {"conformal": conformal, "semiRiemannian": semi, "minimal": minimal}
                closed = {"conformal": True, "semiRiemannian": case.closed[0], "minimal": case.closed[1]}
                disagreements.append(
                    dict(
                        head,
                        geometric=dict(geometric, totallyGeodesic=geodesic),
                        closedForm=dict(closed, totallyGeodesic=violated is None),
                    )
                )
            if track_conjectures and conformal and not geodesic:
                tg_count += 1
                if len(tg_details) < verifier.DETAIL_CAP:
                    (i, j), vec = first_nonzero_of(case.vertical.form(eps))
                    tg_details.append(
                        dict(
                            head,
                            violatedCondition=violated,
                            witnessPair=[names[i], names[j]],
                            witnessValue=[format_scalar(v) for v in vec],
                            compactType=compact_type,
                        )
                    )
            if track_conjectures and conformal and not minimal:
                minimality_count += 1
                if len(minimality_details) < verifier.DETAIL_CAP:
                    mean = case.horizontal.mean_curvature(eps)
                    minimality_details.append(dict(head, meanCurvature=[format_scalar(v) for v in mean]))
    total = config.samples * len(signatures)
    return verifier.SweepReport(
        config=config,
        signatures_per_draw=len(signatures),
        total_cases=total,
        agreements=total - len(disagreements),
        disagreements=tuple(disagreements),
        tg_counterexamples=tuple(tg_details),
        tg_counterexample_count=tg_count,
        minimality_counterexamples=tuple(minimality_details),
        minimality_counterexample_count=minimality_count,
        resampled_draws=resampled,
        flag_counts=flags,
    )


def mask_modes(family):
    """Every signature mode, with fixed lists out of product order and from one eps_X*eps_Y class only."""
    dim = family_dimension(family)
    mixed = ((-1,) * dim, (1,) * dim, (1, -1) + (1,) * (dim - 2), (1,) * (dim - 1) + (-1,))
    one_class = ((1,) * (dim - 1) + (-1,), (-1,) + (1,) * (dim - 3) + (-1, 1), (1, -1) + (1,) * (dim - 3) + (-1,))
    return [
        {"signature_mode": "all"},
        {"signature_mode": "riemannian-only"},
        {"signature_mode": "fixed", "fixed_signatures": mixed},
        {"signature_mode": "fixed", "fixed_signatures": one_class},
    ]


def flip_minimality(monkeypatch, flip):
    """Flip the closed-form or the geometric minimality verdict, or neither (flip None).

    With either flipped every case disagrees, so every signature writes a
    disagreement entry.  Real sweeps are minimal wherever they record
    conjecture entries, so only the flipped geometric verdict gives
    minimality entries.  Their mean curvature is zero; flip "curved" instead
    adds 1 and 2 to the mean curvature sums along X and Y, so that entries
    of a semisimple family read a mean curvature signed by eps_X and eps_Y.
    """
    if flip == "closed-form":
        real = verifier.closed_form_minimal
        monkeypatch.setattr(verifier, "closed_form_minimal", lambda spec: not real(spec))
    elif flip == "geometric":
        flags = FrameFreeHorizontal.flags

        def flipped(self, eps):
            conformal, semi, minimal = flags(self, eps)
            return conformal, semi, not minimal

        monkeypatch.setattr(FrameFreeHorizontal, "flags", flipped)
    elif flip == "curved":
        from_setup = FrameFreeHorizontal.from_setup

        def curved(cls, setup):
            sum_x, sum_y = (horizontal := from_setup(setup)).mean_sums
            return horizontal._replace(mean_sums=(sum_x + 1, sum_y + 2))

        monkeypatch.setattr(FrameFreeHorizontal, "from_setup", classmethod(curved))


SEMISIMPLE = [family for family in FamilyId if family not in CIRCLE_FAMILIES]


def bit_indices(mask):
    return [n for n in range(mask.bit_length()) if mask >> n & 1]


class TestSignatureMasks:
    """run_sweep's per-draw signature masks give the per-signature loop's report, byte for byte."""

    @pytest.mark.parametrize("flip", [None, "closed-form", "geometric"])
    @pytest.mark.parametrize("family", list(FamilyId))
    def test_reports_match_the_per_signature_loop(self, family, flip, monkeypatch):
        flip_minimality(monkeypatch, flip)
        kinds = set()
        for mode in mask_modes(family):
            samples = 1 if family_dimension(family) == 8 and mode["signature_mode"] == "all" else 6
            config = SweepConfig(family=family, samples=samples, seed=33, **mode)
            text = run_sweep(config).to_json()
            reference = reference_run_sweep(config)
            assert text == json_dumps_reference(reference), mode
            kinds.update(
                key for key in ("disagreements", "tg_counterexamples", "minimality_counterexamples")
                if getattr(reference, key)
            )
        semisimple = family not in CIRCLE_FAMILIES
        assert ("disagreements" in kinds) == (flip is not None)
        assert ("tg_counterexamples" in kinds) == semisimple
        assert ("minimality_counterexamples" in kinds) == (semisimple and flip == "geometric")

    # The cap falls inside a draw: in its first draw for caps 1 and 7, and for
    # 37 in the second draw of a 32-signature sweep and inside the one draw of
    # a 256-signature sweep.
    @pytest.mark.parametrize("flip", [None, "curved"])
    @pytest.mark.parametrize("cap", [1, 7, 37])
    @pytest.mark.parametrize("family", SEMISIMPLE)
    def test_reports_match_the_per_signature_loop_at_small_caps(self, family, cap, flip, monkeypatch):
        monkeypatch.setattr(verifier, "DETAIL_CAP", cap)
        flip_minimality(monkeypatch, flip)
        capped = set()
        for mode in mask_modes(family):
            if mode["signature_mode"] == "riemannian-only":
                continue
            every = mode["signature_mode"] == "all"
            samples = (1 if family_dimension(family) == 8 else 3) if every else 16
            config = SweepConfig(family=family, samples=samples, seed=34, **mode)
            report = run_sweep(config)
            assert report.to_json() == json_dumps_reference(reference_run_sweep(config)), mode
            if report.tg_counterexample_count > cap:
                capped.add("tg")
            if report.minimality_counterexample_count > cap:
                capped.add("minimality")
        assert capped == ({"tg", "minimality"} if flip else {"tg"})

    def test_partitions_run_once_per_recorded_draw_and_class(self, monkeypatch):
        # Per (draw, class) with recorded entries, the violated-condition and
        # witness partitions (or the mean curvatures, at most two) are built
        # once, on exactly that class's recorded signatures; a draw with no
        # recorded entry builds none.
        config = SweepConfig(family=FamilyId.SU2, samples=12, seed=3)
        signatures = enumerate_signatures(config)
        _, served = _signature_masks(signatures)
        params_of = []  # per draw, its params_text, which its entries share
        calls = []  # (kind, draw, class, signatures)
        draw_cases, first_failures = verifier._draw_cases, verifier._first_failures
        witnesses, mean_curvature = FrameFreeVertical.witnesses, FrameFreeHorizontal.mean_curvature

        def class_of(within):
            return next(s for s, mask in served.items() if within & mask == within)

        def recording_draw_cases(config):
            for attempts, cases in draw_cases(config):
                params_of.append(cases[1].params_text)
                yield attempts, cases

        def recording_failures(conditions, minus, within):
            calls.append(("violated", len(params_of) - 1, class_of(within), within))
            return first_failures(conditions, minus, within)

        def recording_witnesses(self, minus, within):
            calls.append(("witness", len(params_of) - 1, class_of(within), within))
            return witnesses(self, minus, within)

        def recording_mean_curvature(self, eps):
            n = signatures.index(eps)
            calls.append(("mean", len(params_of) - 1, class_of(1 << n), 1 << n))
            return mean_curvature(self, eps)

        monkeypatch.setattr(verifier, "_draw_cases", recording_draw_cases)
        monkeypatch.setattr(verifier, "_first_failures", recording_failures)
        monkeypatch.setattr(FrameFreeVertical, "witnesses", recording_witnesses)
        monkeypatch.setattr(FrameFreeHorizontal, "mean_curvature", recording_mean_curvature)
        for flip in (None, "curved"):
            flip_minimality(monkeypatch, flip)
            params_of.clear()
            calls.clear()
            report = run_sweep(config)
            entries = {"violated": report.tg_counterexamples, "witness": report.tg_counterexamples,
                       "mean": report.minimality_counterexamples}
            assert report.tg_counterexample_count > len(report.tg_counterexamples) == verifier.DETAIL_CAP
            if flip:
                assert report.minimality_counterexample_count > verifier.DETAIL_CAP
            else:
                assert report.minimality_counterexample_count == 0
            for kind, recorded in entries.items():
                # The recorded signatures of each (draw, class), from the entries.
                expected = {}
                for entry in recorded:
                    draw = next(d for d, params in enumerate(params_of) if params is entry["params"])
                    n = signatures.index(tuple(entry["signature"]))
                    key = draw, class_of(1 << n)
                    expected[key] = expected.get(key, 0) | 1 << n
                built = {}  # the signatures of each call, per (draw, class)
                for call_kind, draw, s, within in calls:
                    if call_kind == kind:
                        built.setdefault((draw, s), []).append(within)
                assert built.keys() == expected.keys(), kind
                for key, masks in built.items():
                    if kind == "mean":
                        # One recorded signature stands for each of at most two eps_X parts.
                        assert len(masks) <= 2 and all(mask & expected[key] for mask in masks), key
                    else:
                        assert masks == [expected[key]], (kind, key)


def first_nonzero_of(bv):
    return next((item for item in sorted(bv.items()) if any(item[1])), None)


class TestWitnessPick:
    """FrameFreeVertical.witnesses gives each signature the first nonzero pair of classify's sff_V."""

    @pytest.mark.parametrize("family", list(FamilyId))
    def test_every_signature_of_every_family(self, family):
        config = SweepConfig(family=family, samples=1 if family_dimension(family) == 8 else 3, seed=31)
        signatures = enumerate_signatures(config)
        minus, served = _signature_masks(signatures)
        witnessed = unwitnessed = 0
        for _, cases in _draw_cases(config):
            picked = {}
            for s, case in cases.items():
                parts = case.vertical.witnesses(minus, served[s])
                for bits, pair, vec in parts:
                    assert bits and bits & served[s] == bits
                    for n in bit_indices(bits):
                        assert n not in picked
                        picked[n] = pair, vec
                # The signatures no part takes are the totally geodesic ones.
                bent = sum(bits for bits, _, _ in parts)
                assert case.vertical.totally_geodesic(minus, served[s]) == served[s] & ~bent
            for n, eps in enumerate(signatures):
                case = cases[eps[-2] * eps[-1]]
                hit = FoliationSetup(case.setup.tensor, MetricFrame(eps), case.setup.vertical, case.setup.horizontal)
                expected = first_nonzero_of(classify(hit, require_jacobi=False).bv)
                assert picked.get(n) == expected, eps
                witnessed += expected is not None
                unwitnessed += expected is None
        assert witnessed + unwitnessed == config.samples * len(signatures)
        assert witnessed and unwitnessed


class TestSweepBuildsOncePerDraw:
    """The sweep classifies every signature of a draw from one set of frame-free forms."""

    # Three draws of the 32- and 64-signature families, one of the 256-signature ones.
    @pytest.mark.parametrize("family", list(FamilyId))
    def test_reports_match_the_per_case_pipeline(self, family):
        samples = 1 if family_dimension(family) == 8 else 3
        config = SweepConfig(family=family, samples=samples, seed=12)
        signatures = enumerate_signatures(config)
        cases = 0
        circle_mixed_rows = False  # y1 and x1 nonzero: sff_H(X, Y) depends on eps_X*eps_Y
        mean_directions = set()  # horizontal directions with nonzero mean curvature
        # The sweep decides total geodesy for every signature at once: bit n stands for signatures[n].
        minus, _ = _signature_masks(signatures)
        everything = (1 << len(signatures)) - 1
        for _, by_class in _draw_cases(config):
            for n, sig in enumerate(signatures):
                case = by_class[sig[-2] * sig[-1]]
                spec = FamilySpec.create(family, case.params_text, sig)
                circle_mixed_rows |= bool(spec.params.get("y1") and spec.params.get("x1"))
                # A family table is a Lie algebra (tests/test_family_jacobi_certificate.py).
                setup = build_family(spec)
                report = classify(setup, require_jacobi=False)
                # Every frame-free pick equals classify, and sff_H its own entry point,
                # on a table built in this frame.
                assert case.horizontal.flags(sig) == (report.conformal, report.semi_riemannian, report.minimal), sig
                # A single frame is the one-signature case of the masks.
                assert case.vertical.totally_geodesic(_signature_masks((sig,))[0], 1) == report.totally_geodesic, sig
                assert case.horizontal.mean_curvature(sig) == report.mean_curvature, sig
                assert case.horizontal.conformal_vector(sig) == report.conformal_vector, sig
                assert case.vertical.form(sig) == report.bv, sig
                assert case.horizontal.form(sig) == second_fundamental_form_horizontal(setup), sig
                via_connection = second_fundamental_form_vertical_via_connection(
                    setup, require_jacobi=False
                )
                assert second_fundamental_form_vertical(setup) == via_connection
                assert report.bv == via_connection
                # The sweep's per-signature picks: the same flags as the full report,
                # and total geodesy exactly when the Koszul-route sff_V vanishes.
                geodesic = bool(case.vertical.totally_geodesic(minus, everything) >> n & 1)
                assert (*case.flags, geodesic) == (
                    report.conformal,
                    report.semi_riemannian,
                    report.minimal,
                    report.totally_geodesic,
                ), sig
                assert geodesic == (not any(any(vec) for vec in via_connection.values()))
                # ... and its per-draw closed forms equal the per-case predicates.
                assert bool(_conditions_hold(case.conditions, minus, everything) >> n & 1) == (
                    closed_form_totally_geodesic(spec)
                )
                assert case.closed[1] == closed_form_minimal(spec)
                # Mean curvature: the eps-weighted trace of the Koszul-route sff_V.
                trace = tuple(
                    sum(sig[k] * via_connection[(k, k)][h] for k in setup.vertical)
                    for h in range(setup.dim)
                )
                assert report.mean_curvature == trace
                mean_directions.update(h for h, v in enumerate(trace) if v)
                by_definition, vector = oracle_conformal_from_definition(setup)
                assert report.conformal == by_definition
                if by_definition:
                    assert report.conformal_vector == vector
                cases += 1
        assert cases == config.samples * len(signatures)
        is_circle = family in (FamilyId.SU2xSO2, FamilyId.SL2RxSO2)
        assert circle_mixed_rows == is_circle
        assert mean_directions == ({setup.dim - 2, setup.dim - 1} if is_circle else set())

    # One build per draw of a semisimple family, and per eps_X*eps_Y class the
    # signatures reach for a circle family.
    @pytest.mark.parametrize(
        "family, mode, fixed, builds_per_draw",
        [
            pytest.param(FamilyId.SU2, "all", (), 1, id="su2-1"),
            pytest.param(FamilyId.SU2xSU2, "all", (), 1, id="su2xsu2-1"),
            pytest.param(FamilyId.SU2xSO2, "all", (), 2, id="su2xso2-2"),
            pytest.param(FamilyId.SL2RxSO2, "all", (), 2, id="sl2rxso2-all-2"),
            pytest.param(FamilyId.SU2xSO2, "riemannian-only", (), 1, id="su2xso2-riemannian-only-1"),
            pytest.param(
                FamilyId.SU2xSO2, "fixed", ((1, 1, 1, 1, 1, -1), (-1, 1, 1, 1, -1, 1)), 1, id="su2xso2-class-minus-1"
            ),
        ],
    )
    def test_spec_creation_and_setup_once_per_draw(self, family, mode, fixed, builds_per_draw, monkeypatch):
        counts = {"spec": 0, "setup": 0}
        spec_init, setup_init = FamilySpec.__init__, FoliationSetup.__init__

        def counting_spec_init(self, *args, **kwargs):
            counts["spec"] += 1
            spec_init(self, *args, **kwargs)

        def counting_setup_init(self, *args, **kwargs):
            counts["setup"] += 1
            setup_init(self, *args, **kwargs)

        monkeypatch.setattr(FamilySpec, "__init__", counting_spec_init)
        monkeypatch.setattr(FoliationSetup, "__init__", counting_setup_init)
        config = SweepConfig(family=family, samples=3, seed=8, signature_mode=mode, fixed_signatures=fixed)
        report = run_sweep(config)
        assert report.total_cases == 3 * len(enumerate_signatures(config))
        assert counts == {"spec": 3 * builds_per_draw, "setup": 3 * builds_per_draw}


def reference_draw_pair(rng, bound):
    """The draw of one (p, q) pair written on randint, kept as the reference for the pinned stream."""
    if rng.random() < 0.25:
        return 0, 1
    return rng.randint(-bound, bound), rng.randint(1, bound)


def reference_semisimple_params(rng, family, bound):
    """The semisimple sampler on reference_draw_pair."""
    pairs = {name: reference_draw_pair(rng, bound) for name in family_parameter_names(family)}
    return {name: Fraction(p, q) for name, (p, q) in pairs.items()}


def reference_so2_params(rng, bound, classes):
    """The circle sampler that builds and checks Fractions in every attempt, kept as the reference."""

    def scalar():
        return Fraction(*reference_draw_pair(rng, bound))

    shared = ("b11", "b21", "c11", "c12", "c21", "c22", "rho")
    attempts = 0
    while True:
        base = {name: scalar() for name in shared}
        x1 = scalar()
        y1 = scalar()
        base.update(x1=x1, y1=y1, y2=x1)
        base["t14"] = scalar()
        base["t24"] = scalar()
        theta4_free = scalar()
        rho, t14 = base["rho"], base["t14"]
        base["theta4"] = rho * t14 / (x1 + x1) if x1 else theta4_free
        x2_by_class = {s: -y1 if s > 0 else y1 for s in classes}
        if all(so2_failed_relation({**base, "x2": x2}, 1, s) is None for s, x2 in x2_by_class.items()):
            return base, x2_by_class, attempts
        attempts += 1


def reference_draws(rng, family, bound, classes):
    """The reference samplers' draw in the shape _draw_params returns: ([(params, classes served)], attempts)."""
    if family not in CIRCLE_FAMILIES:
        return [(reference_semisimple_params(rng, family, bound), tuple(classes))], 0
    base, x2_by_class, attempts = reference_so2_params(rng, bound, classes)
    names = family_parameter_names(family)
    draws = [({name: x2 if name == "x2" else base[name] for name in names}, (s,)) for s, x2 in x2_by_class.items()]
    return draws, attempts


def assert_draw_matches_reference(rng, reference_rng, family, bound, classes):
    """_draw_params and the reference give equal Fractions in family key order, and leave equal RNG states."""
    draws, attempts = _draw_params(rng, family, bound, classes)
    assert (draws, attempts) == reference_draws(reference_rng, family, bound, classes)
    assert all(list(params) == list(family_parameter_names(family)) for params, _ in draws)
    assert all(type(v) is Fraction for params, _ in draws for v in params.values())
    assert rng.getstate() == reference_rng.getstate()
    return draws


class TestSo2Sampling:
    def test_draws_satisfy_constraints(self):
        rng = random.Random(9)
        for family in (FamilyId.SU2xSO2, FamilyId.SL2RxSO2):
            for classes in ((1, -1), (1,), (-1,)):
                for _ in range(30):
                    draws, _ = _draw_params(rng, family, 8, classes)
                    assert [served for _, served in draws] == [(s,) for s in classes]
                    for params, (s,) in draws:
                        assert params["y2"] == params["x1"]
                        assert params["x2"] == -s * params["y1"]
                        # The sampler tests scaled integers; the draw passes on its Fractions too.
                        assert so2_failed_relation(params, 1, s) is None
                        build_family(FamilySpec.create(family, params, (1, 1, 1, 1, 1, s)))  # must not raise

    @pytest.mark.parametrize("family", [FamilyId.SU2xSO2, FamilyId.SL2RxSO2])
    def test_sweep_checks_each_draw_only_in_the_sampler(self, family, monkeypatch):
        # The sampler calls the check through its own binding, verifier.so2_failed_relation;
        # the sweep builds the accepted draws without build_family's check.
        config = SweepConfig(family=family, samples=20, seed=5)
        expected = run_sweep(config).to_json()

        def refuse(*args):
            raise AssertionError("a sweep draw was checked again after the sampler accepted it")

        monkeypatch.setattr(families, "so2_failed_relation", refuse)
        assert run_sweep(config).to_json() == expected

    @pytest.mark.parametrize("family", [FamilyId.SU2xSO2, FamilyId.SL2RxSO2])
    def test_matches_the_fraction_sampler(self, family):
        # 3 bounds x 3 class sets x 112 streams per family, 2016 (seed, index) streams in all.
        strata = {"x1 = 0": 0, "theta4 determined, nonzero": 0}
        for bound, classes in itertools.product((1, 5, 10), ((1,), (-1,), (-1, 1))):
            seed = 100 * bound + len(classes) * classes[0]
            for index in range(112):
                rng, reference_rng = _sample_rng(seed, index), _sample_rng(seed, index)
                params = assert_draw_matches_reference(rng, reference_rng, family, bound, classes)[0][0]
                strata["x1 = 0"] += params["x1"] == 0
                strata["theta4 determined, nonzero"] += params["x1"] != 0 and params["theta4"] != 0
        assert all(strata.values()), strata

    # 1, the powers of two and 2^k +- 1 up to 64: each bit count the integer
    # draws meet, at their lowest and highest redraw rates.
    @pytest.mark.parametrize("bound", sorted({1, *(2**k + d for k in range(1, 7) for d in (-1, 0, 1))} - {65}))
    def test_every_sampler_keeps_the_randint_stream(self, bound):
        # Per bound 24 streams of the pair draw, 4 per semisimple family and 3
        # per circle family and class set: 58 (seed, index) streams, 928 in all.
        families = [f for f in FamilyId if f not in CIRCLE_FAMILIES]
        for index in range(24):
            rng, reference_rng = _sample_rng(bound, index), _sample_rng(bound, index)
            for _ in range(12):
                assert verifier._draw_pair(rng, bound) == reference_draw_pair(reference_rng, bound)
                assert rng.getstate() == reference_rng.getstate()
        for family, index in itertools.product(families, range(4)):
            rng, reference_rng = _sample_rng(-bound, index), _sample_rng(-bound, index)
            assert_draw_matches_reference(rng, reference_rng, family, bound, (1, -1))
        for family, classes, index in itertools.product(
            (FamilyId.SU2xSO2, FamilyId.SL2RxSO2), ((1,), (-1,), (-1, 1)), range(3)
        ):
            rng, reference_rng = _sample_rng(1000 + bound, index), _sample_rng(1000 + bound, index)
            assert_draw_matches_reference(rng, reference_rng, family, bound, classes)

    def test_exhausted_sampler_raises_sampling_error(self, monkeypatch):
        monkeypatch.setattr(verifier, "SO2_MAX_ATTEMPTS", 3)
        with pytest.raises(SamplingError, match="no feasible circle-family draw in 3 attempts"):
            run_sweep(SweepConfig(family=FamilyId.SL2RxSO2, samples=50, seed=2))


def generic_circle_member(rng, family, s, bound=10):
    """A circle member on the generic stratum, built the way bench/gen.py's stratum 0 is.

    x1, y1 and t14 are nonzero and s*y1^2 + x1^2 != 0, so rho, t24 and the
    determined theta4 = rho*t14/(2*x1) solve the Jacobi relations and theta4
    is nonzero.  s = eps_X*eps_Y is the class of the drawn signature.
    """

    def nonzero():
        value = F(0)
        while not value:
            value = F(rng.randint(-bound, bound), rng.randint(1, bound))
        return value

    x1, y1, t14 = nonzero(), nonzero(), nonzero()
    while s * y1 * y1 + x1 * x1 == 0:
        y1 = nonzero()
    rho = t14 * (s * y1 * y1 + x1 * x1) / (2 * x1 * y1)
    params = {
        name: F(rng.randint(-bound, bound), rng.randint(1, bound)) for name in family_parameter_names(family)
    }
    params.update(
        rho=rho, x1=x1, x2=-s * y1, y1=y1, y2=x1, t14=t14, t24=t14 * x1 / y1 - rho, theta4=rho * t14 / (2 * x1)
    )
    eps = tuple(rng.choice((1, -1)) for _ in range(family_dimension(family) - 1))
    return FamilySpec.create(family, params, (*eps, s * eps[-1]))


class TestGenericCircleStratum:
    """theta4 != 0, which the circle sampler of the sweeps practically never draws."""

    @pytest.mark.parametrize("s", [1, -1])
    @pytest.mark.parametrize("family", [FamilyId.SU2xSO2, FamilyId.SL2RxSO2])
    def test_determined_theta4(self, family, s):
        rng = random.Random(f"generic-circle-{family.value}-{s}")
        for _ in range(12):
            spec = generic_circle_member(rng, family, s)
            eps = spec.signature.epsilon
            assert eps[-2] * eps[-1] == s
            setup = build_family(spec)
            closed = closed_form_theta(spec)
            assert closed[3] != 0
            solution = oracle_solve_theta(spec)
            assert solution.status == "unique"
            assert solution.theta == closed
            report = classify(setup)
            assert (report.conformal, report.semi_riemannian, report.minimal, report.totally_geodesic) == (
                True,
                spec.params["x1"] == 0,
                closed_form_minimal(spec),
                closed_form_totally_geodesic(spec),
            )


class TestCounterexampleSearch:
    def test_su2_split_signature_finds_witnesses(self):
        config = SweepConfig(
            family=FamilyId.SU2,
            samples=25,
            seed=7,
            signature_mode="fixed",
            fixed_signatures=((1, -1, 1, 1, 1),),
        )
        hits = find_conjecture_counterexamples(config)
        assert hits
        for entry in hits[:5]:
            spec = FamilySpec.create(
                FamilyId.SU2,
                {k: F(v) if "/" not in v else F(*map(int, v.split("/"))) for k, v in entry["params"].items()},
                tuple(entry["signature"]),
            )
            report = classify(build_family(spec))
            assert report.conformal and not report.totally_geodesic
            assert report.minimal
            assert entry["compactType"] is True

    def test_named_example_is_a_counterexample(self):
        spec = FamilySpec.create("su2", {"b11": 1}, (1, -1, 1, 1, 1))
        report = classify(build_family(spec))
        assert report.conformal and report.semi_riemannian
        assert not report.totally_geodesic
        assert report.bv[(0, 1)][3] == F(-1)  # sff_V(A, B) = -eps_X X

    def test_riemannian_mode_empty_for_su2(self):
        config = SweepConfig(
            family=FamilyId.SU2, samples=25, seed=8, signature_mode="riemannian-only"
        )
        assert find_conjecture_counterexamples(config) == []

    def test_su2xsu2_split_second_block(self):
        # eps_T = -eps_R with t14 != 0 breaks geodesy in the second block.
        sig = (1, 1, 1, 1, 1, -1, 1, 1)
        spec = FamilySpec.create("su2xsu2", {"t14": 1}, sig)
        report = classify(build_family(spec))
        assert report.conformal and report.semi_riemannian and report.minimal
        assert not report.totally_geodesic
        pairs = [pair for pair, _ in report.totally_geodesic_witnesses]
        assert (3, 5) in pairs  # sff_V(R, T) != 0
        config = SweepConfig(
            family=FamilyId.SU2xSU2,
            samples=10,
            seed=8,
            signature_mode="fixed",
            fixed_signatures=(sig,),
        )
        hits = find_conjecture_counterexamples(config)
        assert hits
        assert all(entry["compactType"] is True for entry in hits)

    def test_circle_families_rejected(self):
        config = SweepConfig(family=FamilyId.SU2xSO2, samples=5, seed=0)
        with pytest.raises(StructureError, match="semisimple"):
            find_conjecture_counterexamples(config)

    def test_sl2r_riemannian_still_finds_geodesy_failures(self):
        config = SweepConfig(
            family=FamilyId.SL2R, samples=25, seed=9, signature_mode="riemannian-only"
        )
        hits = find_conjecture_counterexamples(config)
        assert hits
        assert all(entry["compactType"] is False for entry in hits)
        assert all(entry["minimal"] for entry in hits)


def reference_counterexamples(config):
    """Reference for find_conjecture_counterexamples: a full spec, build and classify per (draw, signature)."""
    family = config.family
    names = family_basis_names(family)
    results = []
    for index in range(config.samples):
        rng = _sample_rng(config.seed, index)
        [(params, _)], _ = _draw_params(rng, family, config.parameter_range, (1, -1))
        for sig in enumerate_signatures(config):
            spec = FamilySpec.create(family, params, sig)
            setup = build_family(spec)
            report = classify(setup, require_jacobi=False)
            if not (report.conformal and not report.totally_geodesic):
                continue
            entry = {
                "family": family.value,
                "params": {name: format_scalar(v) for name, v in spec.params.items()},
                "signature": list(sig),
                "violatedCondition": first_nonzero_condition(spec),
            }
            (i, j), vec = report.totally_geodesic_witnesses[0]
            entry["witnessPair"] = [names[i], names[j]]
            entry["witnessValue"] = [format_scalar(v) for v in vec]
            entry["compactType"] = is_negative_definite(killing_form(setup.tensor, setup.vertical))
            entry["minimal"] = report.minimal
            results.append(entry)
    return results


class TestCounterexampleSearchMatchesReference:
    FIXED = {
        5: ((1, -1, 1, 1, 1), (1, 1, -1, 1, -1)),
        8: ((1, -1, 1, 1, 1, 1, 1, 1), (1, 1, 1, 1, 1, -1, 1, -1)),
    }

    @pytest.mark.parametrize("family", [FamilyId.SU2, FamilyId.SL2R, FamilyId.SU2xSU2, FamilyId.SU2xSL2R])
    @pytest.mark.parametrize("mode", ["all", "riemannian-only", "fixed"])
    def test_entries_and_key_order(self, family, mode):
        dim = family_dimension(family)
        samples = {"all": 1 if dim == 8 else 6, "riemannian-only": 20, "fixed": 8}[mode]
        config = SweepConfig(
            family=family,
            samples=samples,
            seed=23,
            signature_mode=mode,
            fixed_signatures=self.FIXED[dim] if mode == "fixed" else (),
        )
        hits = find_conjecture_counterexamples(config)
        assert json.dumps(hits) == json.dumps(reference_counterexamples(config))
        # Compact-type Riemannian members are the conjecture's own setting: no hits there.
        compact_riemannian = family in (FamilyId.SU2, FamilyId.SU2xSU2) and mode == "riemannian-only"
        assert bool(hits) != compact_riemannian

    @pytest.mark.parametrize("family", SEMISIMPLE)
    def test_sweep_records_the_first_search_entries(self, family):
        # Both write their entries with one builder: the sweep's conjecture
        # entries are the search's first DETAIL_CAP, less "minimal".
        config = SweepConfig(family=family, samples=2 if family_dimension(family) == 8 else 12, seed=26)
        hits = find_conjecture_counterexamples(config)
        report = run_sweep(config)
        assert len(hits) == report.tg_counterexample_count > verifier.DETAIL_CAP
        searched = [{key: value for key, value in entry.items() if key != "minimal"} for entry in hits]
        assert json.dumps(list(report.tg_counterexamples)) == json.dumps(searched[: verifier.DETAIL_CAP])

    def test_one_build_per_draw_and_one_classify_per_hit(self, monkeypatch):
        counts = {"table": 0, "classify": 0, "killing": 0}

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(families, "assemble_family_table", counting("table", families.assemble_family_table))
        monkeypatch.setattr(verifier, "classify", counting("classify", verifier.classify))
        monkeypatch.setattr(verifier, "killing_form", counting("killing", verifier.killing_form))
        # Every sl2r member is totally geodesic at (-1, 1, 1, 1, 1): each eps factor vanishes.
        config = SweepConfig(
            family=FamilyId.SL2R,
            samples=12,
            seed=1,
            signature_mode="fixed",
            fixed_signatures=((1, 1, 1, 1, 1), (-1, 1, 1, 1, 1), (1, 1, 1, -1, 1)),
        )
        hits = find_conjecture_counterexamples(config)
        draws_with_hits = len({json.dumps(entry["params"]) for entry in hits})
        assert 0 < draws_with_hits < config.samples < len(hits)
        assert counts == {"table": 12, "classify": len(hits), "killing": draws_with_hits}

    def test_reverification_failure_raises(self, monkeypatch):
        real = verifier.classify
        monkeypatch.setattr(
            verifier,
            "classify",
            lambda setup, **kwargs: dataclasses.replace(real(setup, **kwargs), conformal=False),
        )
        config = SweepConfig(
            family=FamilyId.SU2,
            samples=5,
            seed=7,
            signature_mode="fixed",
            fixed_signatures=((1, -1, 1, 1, 1),),
        )
        with pytest.raises(ReverificationError, match=r"^su2 params \{.*\} signature \[1, -1, 1, 1, 1\]: "):
            find_conjecture_counterexamples(config)


class TestConformalityOracle:
    def test_agrees_with_classifier(self):
        rng = random.Random(10)
        for _ in range(15):
            family = rng.choice(list(FamilyId))
            dim = family_dimension(family)
            sig = tuple(rng.choice((1, -1)) for _ in range(dim))
            [(params, _)], _ = _draw_params(rng, family, 5, (sig[-2] * sig[-1],))
            setup = build_family(FamilySpec.create(family, params, sig))
            report = classify(setup, require_jacobi=False)
            by_definition, vector = oracle_conformal_from_definition(setup)
            assert by_definition == report.conformal
            if by_definition:
                assert vector == report.conformal_vector

    def test_detects_non_conformal_raw_tables(self):
        setup = build_so2_raw_setup(FamilyId.SU2xSO2, (1,) * 6, {"x1": 3, "y2": 1})
        ok, vector = oracle_conformal_from_definition(setup)
        assert not ok and vector is None
        assert not classify(setup, require_jacobi=False).conformal
