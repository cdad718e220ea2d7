"""liefol: exact classification of left-invariant codimension-two foliations
on semi-Riemannian Lie groups.

Structure constants, causal characters, and a vertical/horizontal split go in;
conformal / semi-Riemannian / minimal / totally geodesic verdicts with exact
rational witnesses come out.  Includes constructors for six classified
families, closed-form predicates, and seeded sweep harnesses that cross-check
the two against each other.
"""

from .algebra import (
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
)
from .families import (
    FamilyId,
    FamilySpec,
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
from .geometry import (
    FoliationReport,
    classify,
    connection_coefficients,
    second_fundamental_form_horizontal,
    second_fundamental_form_vertical,
)
from .verifier import (
    ReverificationError,
    SamplingError,
    SweepConfig,
    SweepReport,
    ThetaSolution,
    find_conjecture_counterexamples,
    oracle_conformal_from_definition,
    oracle_solve_theta,
    run_sweep,
)

__version__ = "0.1.0"

__all__ = [
    "ConstraintError",
    "FamilyId",
    "FamilySpec",
    "FoliationReport",
    "FoliationSetup",
    "JacobiError",
    "MetricFrame",
    "ReverificationError",
    "SamplingError",
    "StructureError",
    "StructureTensor",
    "SweepConfig",
    "SweepReport",
    "ThetaSolution",
    "as_scalar",
    "build_family",
    "build_so2_raw_setup",
    "classify",
    "closed_form_minimal",
    "closed_form_theta",
    "closed_form_totally_geodesic",
    "connection_coefficients",
    "family_basis_names",
    "family_dimension",
    "family_parameter_names",
    "find_conjecture_counterexamples",
    "format_scalar",
    "jacobi_residual",
    "killing_form",
    "oracle_conformal_from_definition",
    "oracle_solve_theta",
    "run_sweep",
    "second_fundamental_form_horizontal",
    "second_fundamental_form_vertical",
    "so2_failed_relation",
    "totally_geodesic_conditions",
]
