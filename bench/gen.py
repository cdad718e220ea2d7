"""Seeded input generators for the benchmark workloads.

Everything here is derived from a seed and built only through liefol's public
API, so the program under test never sees anything but the generated inputs.
Expected outputs are fixed by construction (closed forms, or a bracket row
that provably breaks the Jacobi identity), never by running the classifier.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction

PARAM_RANGE = 10

SEMISIMPLE = ("su2", "sl2r", "su2xsu2", "su2xsl2r")
CIRCLE = ("su2xso2", "sl2rxso2")
ALL_FAMILIES = SEMISIMPLE + CIRCLE
FAMILY_DIM = {"su2": 5, "sl2r": 5, "su2xsu2": 8, "su2xsl2r": 8, "su2xso2": 6, "sl2rxso2": 6}
BLOCK_PARAMS = ("b11", "b21", "c11", "c12", "c21", "c22")
SECOND_BLOCK_PARAMS = ("s14", "s24", "t14", "t15", "t24", "t25")


def rng_for(*parts) -> random.Random:
    return random.Random(":".join(str(p) for p in parts))


def draw_scalar(rng: random.Random, bound: int = PARAM_RANGE) -> Fraction:
    # Zero one time in four, so the degenerate strata of the predicates are hit.
    if rng.random() < 0.25:
        return Fraction(0)
    return Fraction(rng.randint(-bound, bound), rng.randint(1, bound))


def draw_nonzero(rng: random.Random, bound: int = PARAM_RANGE) -> Fraction:
    value = Fraction(0)
    while not value:
        value = Fraction(rng.randint(-bound, bound), rng.randint(1, bound))
    return value


def draw_signature(rng: random.Random, dim: int) -> tuple[int, ...]:
    return tuple(rng.choice((1, -1)) for _ in range(dim))


def _circle_params(rng: random.Random, s: int) -> dict:
    """Parameters of a circle-factor member that satisfy every Jacobi relation.

    With x1 = y2 and x2 = -s*y1 (s = eps_X*eps_Y), the relations
    t14*x2 + rho*y2 - t24*x1 = 0, t14*y2 - (rho + t24)*y1 = 0 and
    (x1 + y2)*theta4 = rho*t14 are solved stratum by stratum.
    """
    x1 = y1 = t14 = rho = t24 = theta4 = Fraction(0)
    stratum = rng.randrange(4)
    if stratum == 0:  # generic: x1, y1 != 0, rho and t24 determined by t14
        x1, y1, t14 = draw_nonzero(rng), draw_nonzero(rng), draw_scalar(rng)
        rho = t14 * (s * y1 * y1 + x1 * x1) / (2 * x1 * y1)
        t24 = t14 * x1 / y1 - rho
        theta4 = rho * t14 / (2 * x1)
    elif stratum == 1:  # y1 = 0, x1 != 0: t14 = 0, t24 = rho
        x1, rho = draw_nonzero(rng), draw_scalar(rng)
        t24 = rho
    elif stratum == 2:  # x1 = 0, y1 != 0: t14 = 0, t24 = -rho, theta4 free
        y1, rho, theta4 = draw_nonzero(rng), draw_scalar(rng), draw_scalar(rng)
        t24 = -rho
    else:  # x1 = y1 = 0: rho*t14 = 0, t24 and theta4 free
        rho, t24, theta4 = draw_scalar(rng), draw_scalar(rng), draw_scalar(rng)
    return {"rho": rho, "x1": x1, "x2": -s * y1, "y1": y1, "y2": x1,
            "t14": t14, "t24": t24, "theta4": theta4}


def draw_member(rng: random.Random, family: str) -> tuple[dict, tuple[int, ...]]:
    """A Jacobi-feasible parameter set and a signature for one family member."""
    signature = draw_signature(rng, FAMILY_DIM[family])
    params = {name: draw_scalar(rng) for name in BLOCK_PARAMS}
    if family in ("su2xsu2", "su2xsl2r"):
        params.update({name: draw_scalar(rng) for name in SECOND_BLOCK_PARAMS})
    if family in CIRCLE:
        params.update(_circle_params(rng, signature[-2] * signature[-1]))
    else:
        params["rho"] = draw_scalar(rng)
    return params, signature


def expected_flags(lf, spec) -> dict:
    """The member's verdicts from the closed-form predicates alone."""
    fam = spec.family.value
    return {
        "conformal": True,
        "semi-riemannian": spec.params["x1"] == 0 if fam in CIRCLE else True,
        "minimal": lf.closed_form_minimal(spec),
        "totally geodesic": lf.closed_form_totally_geodesic(spec),
    }


# -- check documents ----------------------------------------------------------

# One cycle (round) of check documents.  Pooled over rounds, p50 falls in the
# middle of the dim-10 group (ranks 3-6 of 10) and p90 in the middle of the
# dim-24 group (ranks 9-10), never on a boundary between two groups.  The
# Jacobi-breaking documents (one in five) sit outside both groups, so the
# groups hold the same kind of document in every round.
CYCLE_DIMS = (6, 8, 10, 10, 10, 10, 16, 16, 24, 24)
PERTURBED_DIMS = (8, 16)


def _embed(tensor, epsilon, vertical, horizontal, target_dim, rng):
    """Rows, epsilon and split of the member embedded among central directions.

    The basis is shuffled, so the extra directions and the member's own sit
    at seeded positions.  Returns the new position of every old basis index.
    """
    dim = tensor.dim
    perm = list(range(target_dim))
    rng.shuffle(perm)
    rows = {}
    for i in range(dim):
        for j in range(i + 1, dim):
            coeffs = tensor.c[i][j]
            if not any(coeffs):
                continue
            vec = [Fraction(0)] * target_dim
            for k, value in enumerate(coeffs):
                vec[perm[k]] = value
            a, b = perm[i], perm[j]
            if a > b:
                a, b, vec = b, a, [-v for v in vec]
            rows[(a, b)] = vec
    eps = [1] * target_dim
    for old in range(target_dim):
        eps[perm[old]] = epsilon[old] if old < dim else rng.choice((1, -1))
    new_vertical = sorted(perm[v] for v in (*vertical, *range(dim, target_dim)))
    return rows, eps, new_vertical, [perm[h] for h in horizontal], perm


def _fmt(value: Fraction) -> str:
    return str(value.numerator) if value.denominator == 1 else f"{value.numerator}/{value.denominator}"


def make_document(lf, rng: random.Random, target_dim: int, perturb: bool) -> tuple[str, dict]:
    """A `check` document and its expected verdicts, fixed by construction.

    Unperturbed: a family member plus central vertical directions, which add
    nothing to either second fundamental form, so the member's closed-form
    verdicts hold.  Perturbed: two extra directions Z1, Z2 get [Z1, Z2] = l*A,
    so the cyclic sum on (Z1, Z2, B) is l*[A, B] = 2l*C != 0 and Jacobi fails.
    """
    fitting = [f for f in ALL_FAMILIES if FAMILY_DIM[f] + (2 if perturb else 0) <= target_dim]
    family = rng.choice(fitting)
    params, signature = draw_member(rng, family)
    spec = lf.FamilySpec.create(family, params, signature)
    setup = lf.build_family(spec)
    dim = setup.dim
    rows, eps, vertical, horizontal, perm = _embed(
        setup.tensor, signature, setup.vertical, setup.horizontal, target_dim, rng
    )
    if perturb:
        z1, z2 = perm[dim], perm[dim + 1]
        vec = [Fraction(0)] * target_dim
        vec[perm[0]] = draw_nonzero(rng)
        if z1 > z2:
            z1, z2, vec = z2, z1, [-v for v in vec]
        rows[(z1, z2)] = vec
    names = [""] * target_dim
    for old, new in enumerate(perm):
        names[new] = lf.family_basis_names(family)[old] if old < dim else f"Z{old - dim + 1}"
    doc = {
        "dim": target_dim,
        "epsilon": eps,
        "brackets": [
            {"i": i, "j": j, "coeffs": [_fmt(v) for v in vec]} for (i, j), vec in sorted(rows.items())
        ],
        "vertical": vertical,
        "horizontal": horizontal,
        "meta": {"basis": names, "family": family},
    }
    if perturb:
        expected = {"exit": 2, "flags": None}
    else:
        expected = {"exit": 0, "flags": expected_flags(lf, spec)}
    return json.dumps(doc), expected


def document_cycle(lf, seed, cycle: int) -> list[tuple[str, dict]]:
    rng = rng_for("check-docs", seed, cycle)
    dims = list(CYCLE_DIMS)
    rng.shuffle(dims)
    perturbed = {dims.index(d) for d in PERTURBED_DIMS}
    return [make_document(lf, rng, d, pos in perturbed) for pos, d in enumerate(dims)]
