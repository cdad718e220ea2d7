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
from typing import NamedTuple, Sequence

from .algebra import HALF, ZERO, FoliationSetup, require_lie_algebra


def connection_coefficients(
    setup: FoliationSetup, *, require_jacobi: bool = True
) -> tuple[tuple[tuple[Fraction, ...], ...], ...]:
    """Levi-Civita connection gamma[i][j][k], nabla_{e_i} e_j along e_k, from the Koszul formula."""
    if require_jacobi:
        require_lie_algebra(setup.tensor)
    dim = setup.dim
    c = setup.tensor.c
    eps = setup.frame.epsilon
    gamma = []
    for i in range(dim):
        rows = []
        for j in range(dim):
            row = []
            for k in range(dim):
                # Diagonal metric: g([e_k,e_i],e_j) = eps_j c[k][i][j], etc.  Most
                # coefficients are zero, so only nonzero terms enter the sum.
                kij, kji, ijk = c[k][i][j], c[k][j][i], c[i][j][k]
                if not (kij or kji or ijk):
                    row.append(ZERO)
                    continue
                val = ZERO
                for e, t in ((eps[j], kij), (eps[i], kji), (eps[k], ijk)):
                    if t:
                        term = t if e > 0 else -t
                        val = val + term if val else term
                row.append((val if eps[k] > 0 else -val) * HALF if val else ZERO)
            rows.append(tuple(row))
        gamma.append(tuple(rows))
    return tuple(gamma)


_ZERO_PAIR = (ZERO, ZERO)


def _halves(t1: Fraction, t2: Fraction, minus_t2: Fraction) -> tuple[Fraction, Fraction]:
    """((t1 + t2)/2, (t1 - t2)/2), with minus_t2 = -t2: entry (same < 0) is (t1 + same*t2)/2, same = +-1."""
    # Family tables give zero pairs, opposite pairs, t1 = 0 and equal pairs,
    # in that order of frequency, and almost never another pair; an
    # antisymmetric table holds -t2 as t2's mirror entry, so each of those
    # shapes needs at most one ring operation, and the two most frequent none.
    if not t2:
        if not t1:
            return _ZERO_PAIR
        half = t1 * HALF
        return half, half
    if not t1:
        half = t2 * HALF
        return half, -half
    if t1 == minus_t2:
        return ZERO, t1
    if t1 == t2:
        return t1, ZERO
    return (t1 + t2) * HALF, (t1 + minus_t2) * HALF


def _sum_nonzero(values) -> Fraction:
    """sum(values), adding only nonzero terms: adding a zero still builds a Fraction."""
    total = ZERO
    for value in values:
        if value:
            total = total + value if total else value
    return total


class FrameFreeVertical(NamedTuple):
    """sff_V of a split with the causal characters factored out.

    sff_V(e_i, e_j)_h = eps_h eps_j (t1 + eps_i eps_j t2)/2 with t1 = c[h][i][j]
    and t2 = c[h][j][i], so the halves of t1 and t2 (see _halves) give the
    form of every metric frame: eps_i eps_j picks a half and eps_h eps_j its
    sign.  Total geodesy depends on the frame only through the products
    eps_i eps_j of vertical pairs.

    A NamedTuple, not a frozen dataclass: it is as immutable and about ten
    times cheaper to define at import, which every fresh process pays.
    """

    dim: int
    horizontal: tuple[int, int]
    # Per vertical pair i <= j: (i, j, halves along X, halves along Y).
    pairs: tuple[tuple[int, int, tuple[Fraction, Fraction], tuple[Fraction, Fraction]], ...]
    # Per half that is nonzero along X or Y, in pairs order: (i, j, whether it is
    # the half for eps_i != eps_j, its value along X, its value along Y).
    bends: tuple[tuple[int, int, bool, Fraction, Fraction], ...]

    @classmethod
    def from_setup(cls, setup: FoliationSetup) -> "FrameFreeVertical":
        c = setup.tensor.c
        x, y = setup.horizontal
        cx, cy = c[x], c[y]
        pairs = []
        for a, i in enumerate(setup.vertical):
            cxi, cyi = cx[i], cy[i]
            for j in setup.vertical[a:]:
                cj = c[j]  # cj[x][i] = -cx[j][i]
                hx, hy = _halves(cxi[j], cx[j][i], cj[x][i]), _halves(cyi[j], cy[j][i], cj[y][i])
                pairs.append((i, j, hx, hy))
        # Sorted by (i, j), unique per pair, also when setup.vertical is not, so
        # witnesses meets the pairs in the order of sorted(form(eps).items()).
        pairs.sort()
        bends = tuple(
            (i, j, opposite, hx[opposite], hy[opposite])
            for i, j, hx, hy in pairs
            for opposite in (False, True)
            if hx[opposite] or hy[opposite]
        )
        return cls(setup.dim, (x, y), tuple(pairs), bends)

    def _first_bends(self, minus: Sequence[int], within: int):
        """Yield (bits, i, j, X value, Y value) per half, the signatures of within it is the first to bend.

        minus[k] is the mask of the signatures with eps_k = -1, so
        eps_i != eps_j exactly on minus[i] ^ minus[j].  eps_i eps_j picks
        each pair's half, and no sign makes it zero: a nonzero half bends
        sff_V where it is picked.  The bits of within that no half takes are
        the signatures whose sff_V vanishes.
        """
        for i, j, opposite, half_x, half_y in self.bends:
            split = minus[i] ^ minus[j]
            bits = within & (split if opposite else ~split)
            if bits:
                yield bits, i, j, half_x, half_y
                within ^= bits
                if not within:
                    return

    def totally_geodesic(self, minus: Sequence[int], within: int) -> int:
        """The signatures of the mask within whose sff_V vanishes, as a mask (see _first_bends)."""
        for bend in self._first_bends(minus, within):
            within ^= bend[0]
        return within

    def witnesses(
        self, minus: Sequence[int], within: int
    ) -> list[tuple[int, tuple[int, int], tuple[Fraction, ...]]]:
        """The signatures of the mask within whose sff_V is nonzero, split by its first nonzero pair and value.

        One (bits, (i, j), vector) per part: for every signature of bits, (i, j)
        is the first item of sorted(form(eps).items()) with a nonzero value,
        and vector that value.  eps_h eps_j signs the half along h, so each
        pair's share of within splits by minus[h] ^ minus[j] into at most four
        vectors; a zero half is never negated.
        """
        x, y = self.horizontal
        parts = []
        for bits, i, j, half_x, half_y in self._first_bends(minus, within):
            flip_x = minus[x] ^ minus[j] if half_x else 0
            flip_y = minus[y] ^ minus[j] if half_y else 0
            for negate_x, along_x in ((False, bits & ~flip_x), (True, bits & flip_x)):
                for negate_y, part in ((False, along_x & ~flip_y), (True, along_x & flip_y)):
                    if part:
                        vec = [ZERO] * self.dim
                        vec[x] = -half_x if negate_x else half_x
                        vec[y] = -half_y if negate_y else half_y
                        parts.append((part, (i, j), tuple(vec)))
        return parts

    def form(self, eps: tuple[int, ...]) -> dict[tuple[int, int], tuple[Fraction, ...]]:
        """sff_V of the frame with causal characters eps.

        eps_i eps_j picks each pair's half, and eps_h eps_j signs it along h.
        """
        x, y = self.horizontal
        form = {}
        for i, j, hx, hy in self.pairs:
            ej, opposite = eps[j], eps[i] != eps[j]
            half_x, half_y = hx[opposite], hy[opposite]
            vec = [ZERO] * self.dim
            # Most halves are zero, and negating a zero builds a Fraction.
            vec[x] = -half_x if eps[x] != ej and half_x else half_x
            vec[y] = -half_y if eps[y] != ej and half_y else half_y
            form[i, j] = tuple(vec)
        return form


class FrameFreeHorizontal(NamedTuple):
    """sff_H, the conformal vector and the mean curvature with the causal characters factored out.

    Like sff_V (see FrameFreeVertical), each entry is a bracket coefficient or
    a half sum of two, and a frame picks it and its sign:

    * sff_H(X, X)_k = eps_k eps_X c[k][X][X], sff_H(Y, Y)_k likewise, and
      sff_H(X, Y)_k = eps_k eps_Y (c[k][X][Y] + eps_X eps_Y c[k][Y][X])/2;
    * conformal vector_k = eps_k (c[k][X][X] + c[k][Y][Y])/2;
    * mean curvature_h = eps_h sum_k c[h][k][k] over vertical k.

    Conformality, semi-Riemannianity and minimality then depend on the frame
    only through eps_X eps_Y, or not at all.
    """

    dim: int
    horizontal: tuple[int, int]
    # Per vertical k: (k, c[k][X][X], c[k][Y][Y], halves of c[k][X][Y] and
    # c[k][Y][X], conformal half (c[k][X][X] + c[k][Y][Y])/2).
    entries: tuple[tuple[int, Fraction, Fraction, tuple[Fraction, Fraction], Fraction], ...]
    # sum_k c[h][k][k] for h = X and h = Y.
    mean_sums: tuple[Fraction, Fraction]
    diagonal_equal: bool  # c[k][X][X] = c[k][Y][Y] for every vertical k
    trace_free: bool  # c[k][X][X] + c[k][Y][Y] = 0 for every vertical k
    mixed_zero: tuple[bool, bool]  # sff_H(X, Y) = 0 when eps_X = eps_Y, resp. eps_X != eps_Y

    @classmethod
    def from_setup(cls, setup: FoliationSetup) -> "FrameFreeHorizontal":
        c = setup.tensor.c
        x, y = setup.horizontal
        entries = []
        for k in setup.vertical:
            ckx, cky, cyk = c[k][x], c[k][y], c[y][k]  # cyk = -cky
            xx, yy = ckx[x], cky[y]
            entries.append((k, xx, yy, _halves(ckx[y], cky[x], cyk[x]), _halves(xx, yy, cyk[y])[0]))
        return cls(
            dim=setup.dim,
            horizontal=(x, y),
            entries=tuple(entries),
            mean_sums=(
                _sum_nonzero(c[x][k][k] for k in setup.vertical),
                _sum_nonzero(c[y][k][k] for k in setup.vertical),
            ),
            diagonal_equal=all(xx == yy for _, xx, yy, _, _ in entries),
            trace_free=not any(half for *_, half in entries),
            mixed_zero=(
                not any(mixed[0] for _, _, _, mixed, _ in entries),
                not any(mixed[1] for _, _, _, mixed, _ in entries),
            ),
        )

    def form(self, eps: tuple[int, ...]) -> HorizontalForm:
        """sff_H of the frame with causal characters eps."""
        x, y = self.horizontal
        ex, ey = eps[x], eps[y]
        opposite = ex != ey
        xx, xy, yy = [ZERO] * self.dim, [ZERO] * self.dim, [ZERO] * self.dim
        for k, kxx, kyy, mixed, _ in self.entries:
            ek = eps[k]
            kxy = mixed[opposite]
            # The signs eps_k eps_X and eps_k eps_Y, on nonzero entries only (see FrameFreeVertical).
            xx[k] = -kxx if ek != ex and kxx else kxx
            yy[k] = -kyy if ek != ey and kyy else kyy
            xy[k] = -kxy if ek != ey and kxy else kxy
        return HorizontalForm(tuple(xx), tuple(xy), tuple(yy))

    def flags(self, eps: tuple[int, ...]) -> tuple[bool, bool, bool]:
        """(conformal, semi-Riemannian, minimal) for causal characters eps."""
        x, y = self.horizontal
        conformal = self.diagonal_equal and self.mixed_zero[eps[x] != eps[y]]
        minimal = not (self.mean_sums[0] or self.mean_sums[1])
        return conformal, conformal and self.trace_free, minimal

    def mean_curvature(self, eps: tuple[int, ...]) -> tuple[Fraction, ...]:
        x, y = self.horizontal
        mean = [ZERO] * self.dim
        for h, total in zip((x, y), self.mean_sums):
            mean[h] = -total if eps[h] < 0 and total else total
        return tuple(mean)

    def conformal_vector(self, eps: tuple[int, ...]) -> tuple[Fraction, ...]:
        vector = [ZERO] * self.dim
        for k, _, _, _, half in self.entries:
            vector[k] = -half if eps[k] < 0 and half else half
        return tuple(vector)


def second_fundamental_form_vertical(setup: FoliationSetup) -> dict[tuple[int, int], tuple[Fraction, ...]]:
    """sff_V on vertical basis pairs (i <= j), as full coefficient vectors (horizontal support)."""
    return FrameFreeVertical.from_setup(setup).form(setup.frame.epsilon)


def second_fundamental_form_vertical_via_connection(
    setup: FoliationSetup, *, require_jacobi: bool = True
) -> dict[tuple[int, int], tuple[Fraction, ...]]:
    """sff_V computed the long way: horizontal projection of the symmetrized connection.

    Independent route kept for cross-checking against the bracket formula.
    """
    gamma = connection_coefficients(setup, require_jacobi=require_jacobi)
    x, y = setup.horizontal
    dim = setup.dim
    out: dict[tuple[int, int], tuple[Fraction, ...]] = {}
    for a, i in enumerate(setup.vertical):
        for j in setup.vertical[a:]:
            vec = [ZERO] * dim
            vec[x] = HALF * (gamma[i][j][x] + gamma[j][i][x])
            vec[y] = HALF * (gamma[i][j][y] + gamma[j][i][y])
            out[(i, j)] = tuple(vec)
    return out


@dataclass(frozen=True)
class HorizontalForm:
    """sff_H on the horizontal pair: the three vertical-valued components."""

    xx: tuple[Fraction, ...]
    xy: tuple[Fraction, ...]
    yy: tuple[Fraction, ...]


def second_fundamental_form_horizontal(setup: FoliationSetup) -> HorizontalForm:
    """sff_H on the horizontal pair."""
    return FrameFreeHorizontal.from_setup(setup).form(setup.frame.epsilon)


@dataclass(frozen=True)
class FoliationReport:
    """Classification flags with their exact numeric witnesses."""

    conformal: bool
    semi_riemannian: bool
    minimal: bool
    totally_geodesic: bool
    mean_curvature: tuple[Fraction, ...]
    conformal_vector: tuple[Fraction, ...]
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
    sff_V vanishes identically.  All of it is read off the frame-free forms.

    `require_jacobi=False` skips the Lie-algebra check so deliberately
    inconsistent raw tables can still be classified (the forms only read the
    bracket table).
    """
    if require_jacobi:
        require_lie_algebra(setup.tensor)
    eps = setup.frame.epsilon
    horizontal = FrameFreeHorizontal.from_setup(setup)
    bv = second_fundamental_form_vertical(setup)
    x, y = setup.horizontal
    return FoliationReport(
        *horizontal.flags(eps),
        totally_geodesic=all(not (vec[x] or vec[y]) for vec in bv.values()),
        mean_curvature=horizontal.mean_curvature(eps),
        conformal_vector=horizontal.conformal_vector(eps),
        bv=bv,
    )
