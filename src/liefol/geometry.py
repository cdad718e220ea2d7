"""Levi-Civita connection and second fundamental forms of a codimension-two split.

All left-invariant data: the Koszul formula closes over the bracket table and
the diagonal metric, so every quantity here is a finite exact-rational
expression in the structure constants and the causal characters.

Conventions (orthonormal frame {e_a}, g(e_a, e_b) = eps_a delta_ab):

* nabla_{e_i} e_j = sum_k gamma[i][j][k] e_k with
  2 eps_k gamma[i][j][k] = g([e_k,e_i],e_j) + g([e_k,e_j],e_i) + g(e_k,[e_i,e_j]).
* For vertical E, F:   sff_V(E,F) = 1/2 sum_{H in {X,Y}} eps_H (g([H,E],F) + g([H,F],E)) H.
* For horizontal E, F: sff_H(E,F) = 1/2 sum_{V_k}       eps_k (g([V_k,E],F) + g([V_k,F],E)) V_k.
  (Frame element first in both brackets; this is the orientation the Koszul
  formula produces, and it fixes the sign of the reported conformal vector.)
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .algebra import FoliationSetup, JacobiError, StructureError, jacobi_residual

ZERO = Fraction(0)
HALF = Fraction(1, 2)


@dataclass(frozen=True)
class ConnectionCoefficients:
    """gamma[i][j][k]: component of nabla_{e_i} e_j along e_k."""

    dim: int
    gamma: tuple[tuple[tuple[Fraction, ...], ...], ...]


def _require_lie_algebra(setup: FoliationSetup) -> None:
    report = jacobi_residual(setup.tensor)
    if not report.is_zero:
        raise JacobiError(
            f"bracket table is not a Lie algebra: max Jacobi residual "
            f"{report.max_abs} at triple {report.worst_triple()}"
        )


def connection_coefficients(setup: FoliationSetup, *, require_jacobi: bool = True) -> ConnectionCoefficients:
    """Levi-Civita connection of the left-invariant metric, from the Koszul formula."""
    if require_jacobi:
        _require_lie_algebra(setup)
    dim = setup.dim
    c = setup.tensor.c
    eps = setup.frame.epsilon
    gamma = []
    for i in range(dim):
        rows = []
        for j in range(dim):
            row = []
            for k in range(dim):
                # Diagonal metric: g([e_k,e_i],e_j) = eps_j c[k][i][j], etc.
                val = eps[j] * c[k][i][j] + eps[i] * c[k][j][i] + eps[k] * c[i][j][k]
                row.append(HALF * eps[k] * val)
            rows.append(tuple(row))
        gamma.append(tuple(rows))
    return ConnectionCoefficients(dim, tuple(gamma))


def _signed_half_sum(t1: Fraction, s1: int, t2: Fraction, s2: int, outer: int) -> Fraction:
    # outer * (s1*t1 + s2*t2) / 2 with sign flips instead of Fraction products.
    total = (t1 if s1 > 0 else -t1) if t1 else ZERO
    if t2:
        total = total + (t2 if s2 > 0 else -t2)
    if not total:
        return ZERO
    half = HALF * total
    return half if outer > 0 else -half


def second_fundamental_form_vertical(setup: FoliationSetup) -> dict[tuple[int, int], tuple[Fraction, ...]]:
    """sff_V on vertical basis pairs (i <= j), as full coefficient vectors (horizontal support)."""
    c = setup.tensor.c
    eps = setup.frame.epsilon
    x, y = setup.horizontal
    dim = setup.dim
    cx, cy = c[x], c[y]
    out: dict[tuple[int, int], tuple[Fraction, ...]] = {}
    for a, i in enumerate(setup.vertical):
        cxi, cyi = cx[i], cy[i]
        ei = eps[i]
        for j in setup.vertical[a:]:
            vec = [ZERO] * dim
            vec[x] = _signed_half_sum(cxi[j], eps[j], cx[j][i], ei, eps[x])
            vec[y] = _signed_half_sum(cyi[j], eps[j], cy[j][i], ei, eps[y])
            out[(i, j)] = tuple(vec)
    return out


def second_fundamental_form_vertical_via_connection(
    setup: FoliationSetup, *, require_jacobi: bool = True
) -> dict[tuple[int, int], tuple[Fraction, ...]]:
    """sff_V computed the long way: horizontal projection of the symmetrized connection.

    Independent route kept for cross-checking against the bracket formula.
    """
    conn = connection_coefficients(setup, require_jacobi=require_jacobi)
    x, y = setup.horizontal
    dim = setup.dim
    out: dict[tuple[int, int], tuple[Fraction, ...]] = {}
    for a, i in enumerate(setup.vertical):
        for j in setup.vertical[a:]:
            vec = [ZERO] * dim
            vec[x] = HALF * (conn.gamma[i][j][x] + conn.gamma[j][i][x])
            vec[y] = HALF * (conn.gamma[i][j][y] + conn.gamma[j][i][y])
            out[(i, j)] = tuple(vec)
    return out


@dataclass(frozen=True)
class HorizontalForm:
    """sff_H on the horizontal pair: the three vertical-valued components."""

    xx: tuple[Fraction, ...]
    xy: tuple[Fraction, ...]
    yy: tuple[Fraction, ...]


def second_fundamental_form_horizontal(setup: FoliationSetup) -> HorizontalForm:
    c = setup.tensor.c
    eps = setup.frame.epsilon
    x, y = setup.horizontal
    dim = setup.dim

    def component(e: int, f: int) -> tuple[Fraction, ...]:
        vec = [ZERO] * dim
        ee, ef = eps[e], eps[f]
        for k in setup.vertical:
            ck = c[k]
            vec[k] = _signed_half_sum(ck[e][f], ef, ck[f][e], ee, eps[k])
        return tuple(vec)

    return HorizontalForm(component(x, x), component(x, y), component(y, y))


@dataclass(frozen=True)
class FoliationReport:
    """Classification flags with their exact numeric witnesses."""

    conformal: bool
    semi_riemannian: bool
    minimal: bool
    totally_geodesic: bool
    mean_curvature: tuple[Fraction, ...]
    conformal_vector: tuple[Fraction, ...]
    bh: HorizontalForm
    bv: dict[tuple[int, int], tuple[Fraction, ...]]

    @property
    def totally_geodesic_witnesses(self) -> list[tuple[tuple[int, int], tuple[Fraction, ...]]]:
        """Every vertical pair with a nonzero sff_V value (empty iff totally geodesic)."""
        return [(pair, vec) for pair, vec in sorted(self.bv.items()) if any(vec)]


def classify(setup: FoliationSetup, *, require_jacobi: bool = True) -> FoliationReport:
    """Decide conformal / semi-Riemannian / minimal / totally geodesic, exactly.

    Criteria on the horizontal frame {X, Y}:
      conformal        iff eps_X sff_H(X,X) - eps_Y sff_H(Y,Y) = 0 and sff_H(X,Y) = 0,
      semi-Riemannian  iff conformal and eps_X sff_H(X,X) + eps_Y sff_H(Y,Y) = 0;
    the conformal vector is half that sum (a diagnostic when not conformal).
    Minimal iff the eps-weighted trace of sff_V vanishes; totally geodesic iff
    sff_V vanishes identically.

    `require_jacobi=False` skips the Lie-algebra check so deliberately
    inconsistent raw tables can still be classified (the forms only read the
    bracket table).
    """
    if require_jacobi:
        _require_lie_algebra(setup)
    eps = setup.frame.epsilon
    x, y = setup.horizontal
    dim = setup.dim
    ex, ey = eps[x], eps[y]

    bh = second_fundamental_form_horizontal(setup)
    diff_zero = all(
        (a if ex > 0 else -a) == (b if ey > 0 else -b) for a, b in zip(bh.xx, bh.yy) if a or b
    )
    conformal = diff_zero and not any(bh.xy)
    conformal_vector = tuple(
        _signed_half_sum(a, ex, b, ey, 1) for a, b in zip(bh.xx, bh.yy)
    )
    semi_riemannian = conformal and not any(conformal_vector)

    bv = second_fundamental_form_vertical(setup)
    mean = [ZERO] * dim
    for k in setup.vertical:
        vec = bv[(k, k)]
        vx, vy = vec[x], vec[y]
        if vx:
            mean[x] += vx if eps[k] > 0 else -vx
        if vy:
            mean[y] += vy if eps[k] > 0 else -vy
    minimal = not (mean[x] or mean[y])
    totally_geodesic = all(not (vec[x] or vec[y]) for vec in bv.values())

    return FoliationReport(
        conformal=conformal,
        semi_riemannian=semi_riemannian,
        minimal=minimal,
        totally_geodesic=totally_geodesic,
        mean_curvature=tuple(mean),
        conformal_vector=conformal_vector,
        bh=bh,
        bv=bv,
    )


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
                image = setup.tensor.bracket_with_basis(row, h)
                if any(image[k] for k in hset):
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
