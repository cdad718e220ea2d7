"""Independent oracles and seeded sweep harnesses.

The sweeps restate the classification theorems as machine-checked instances:
every sampled family member is classified geometrically (second fundamental
forms) and compared against the closed-form predicates, recording any
disagreement verbatim.  The theta oracle re-derives the [X, Y] coefficients by
brute-force Jacobi expansion and an exact linear solve, independently of the
closed formulas it cross-checks.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
import reprlib
from dataclasses import dataclass
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _json_string
from types import MappingProxyType
from typing import NamedTuple, Sequence

from .algebra import (
    ZERO,
    FoliationSetup,
    MetricFrame,
    StructureError,
    StructureTensor,
    format_scalar,
    jacobi_residual,
    killing_form,
)
from .families import (
    CIRCLE_FAMILIES,
    COMPACT_FAMILIES,
    FamilyId,
    FamilySpec,
    _conditions_hold,
    _family_rows,
    _family_setup,
    _first_failures,
    closed_form_minimal,
    family_basis_names,
    family_dimension,
    family_parameter_names,
    nonzero_tg_conditions,
    so2_failed_relation,
)
from .geometry import (
    FrameFreeHorizontal,
    FrameFreeVertical,
    classify,
    second_fundamental_form_horizontal,
)
from .linalg import is_negative_definite, solve_linear_system

# Detailed disagreement/counterexample entries kept per report; totals are exact.
DETAIL_CAP = 100

# Rejected circle draws allowed per sample before the sampler gives up.
SO2_MAX_ATTEMPTS = 100_000

_SIGNATURE_MODES = ("all", "riemannian-only", "fixed")


class SamplingError(RuntimeError):
    """The circle-family sampler found no feasible draw within SO2_MAX_ATTEMPTS rejections."""


class ReverificationError(RuntimeError):
    """A counterexample hit whose per-frame classify disagrees with the search's verdicts."""


@dataclass(frozen=True)
class SweepConfig:
    family: FamilyId
    samples: int
    seed: int
    parameter_range: int = 10
    signature_mode: str = "all"
    fixed_signatures: tuple[tuple[int, ...], ...] = ()

    def __post_init__(self):
        if not isinstance(self.family, FamilyId):
            raise StructureError(f"family must be a FamilyId, got {reprlib.repr(self.family)}")
        # Exactly int: a bool would run as 0/1 but key its stream as "True:0",
        # and a float would run the whole sweep and then fail in to_json.
        for field in ("samples", "seed", "parameter_range"):
            value = getattr(self, field)
            if type(value) is not int:
                raise StructureError(f"{field} must be an int, got {value!r}")
        if self.samples < 1:
            raise StructureError("samples must be >= 1")
        if self.parameter_range < 1:
            raise StructureError("parameter_range must be >= 1")
        if self.signature_mode not in _SIGNATURE_MODES:
            raise StructureError(
                f"signature_mode must be one of {_SIGNATURE_MODES}, got {self.signature_mode!r}"
            )
        dim = family_dimension(self.family)
        # _signature_plan caches by the list and run_sweep keys its cases by its tuples.
        if type(self.fixed_signatures) is not tuple:
            raise StructureError(f"fixed_signatures must be a tuple, got {reprlib.repr(self.fixed_signatures)}")
        if self.signature_mode == "fixed":
            if not self.fixed_signatures:
                raise StructureError("fixed signature mode needs at least one signature")
            for pos, sig in enumerate(self.fixed_signatures):
                if type(sig) is not tuple or len(sig) != dim:
                    raise StructureError(f"fixed signature {reprlib.repr(sig)} is not a {dim}-tuple")
                MetricFrame(sig)
                if self.fixed_signatures.index(sig) < pos:  # each of its cases would count twice
                    raise StructureError(f"fixed signature {reprlib.repr(sig)} given more than once")
        elif self.fixed_signatures:
            raise StructureError("fixed_signatures only allowed with signature_mode='fixed'")


def enumerate_signatures(config: SweepConfig) -> tuple[tuple[int, ...], ...]:
    return _signature_plan(config.family, config.signature_mode, config.fixed_signatures)[0]


@functools.lru_cache(maxsize=32)
def _signature_plan(family: FamilyId, mode: str, fixed: tuple[tuple[int, ...], ...]):
    """(signatures, minus, served): a signature mode's list and its masks (see _signature_masks).

    Built once per distinct family, mode and fixed list, and shared by every
    sweep that has them, so served is read-only.  A fixed list is a tuple of int tuples
    (SweepConfig checks that), so equal keys hold equal signatures.
    """
    dim = family_dimension(family)
    if mode == "all":
        signatures = tuple(itertools.product((1, -1), repeat=dim))
    elif mode == "riemannian-only":
        signatures = ((1,) * dim,)
    else:
        signatures = fixed
    minus, served = _signature_masks(signatures)
    return signatures, minus, MappingProxyType(served)


# JSON text of a report's scalar leaves, by exact type, as json.dumps writes them.
_JSON_SCALARS = {
    str: _json_string,
    int: int.__repr__,
    bool: lambda flag: "true" if flag else "false",
    type(None): lambda _: "null",
}

# The top-level report fields that hold entry lists (see SweepReport.to_json).
_ENTRY_LISTS = frozenset(("disagreements", "conjectureCounterexamples", "minimalityCounterexamples"))
_ENTRY_INDENT = " " * 4
_ENTRY_FIELD_INDENT = " " * 6


def _json_block(value, indent: str) -> str:
    """value as json.dumps(..., indent=2) writes it on a line indented by indent.

    Reports hold dicts, lists, and str, int, bool and None leaves; any other
    type raises TypeError.
    """
    render = _JSON_SCALARS.get(type(value))
    if render:
        return render(value)
    inner = indent + "  "
    separator = ",\n" + inner
    if isinstance(value, dict):
        if not value:
            return "{}"
        keys = map(_json_string, value)
        fields = map("{}: {}".format, keys, _json_items(value.values(), inner))
        return f"{{\n{inner}{separator.join(fields)}\n{indent}}}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        return f"[\n{inner}{separator.join(_json_items(value, inner))}\n{indent}]"
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _json_items(values, indent: str):
    """The JSON text of each of values, on lines indented by indent."""
    kinds = set(map(type, values))
    render = _JSON_SCALARS.get(kinds.pop()) if len(kinds) == 1 else None
    # A block of one scalar type, as most are, is written without a call per item.
    return map(render, values) if render else (_json_block(item, indent) for item in values)


def _json_entry(entry: dict, blocks: dict[int, str]) -> str:
    """One entry of a report's entry list, as json.dumps(..., indent=2) writes it.

    blocks holds the text of the container values written so far, by id: the
    entries of a report share their params and signature blocks, so each is
    written once.  Every value is held by the report while it is written, so
    no id is reused meanwhile.
    """
    if not entry:
        return _ENTRY_INDENT + "{}"
    fields = []
    for key, value in entry.items():
        render = _JSON_SCALARS.get(type(value))
        if render:
            text = render(value)
        else:
            text = blocks.get(id(value))
            if text is None:
                text = blocks[id(value)] = _json_block(value, _ENTRY_FIELD_INDENT)
        fields.append(f"{_json_string(key)}: {text}")
    separator = ",\n" + _ENTRY_FIELD_INDENT
    return f"{_ENTRY_INDENT}{{\n{_ENTRY_FIELD_INDENT}{separator.join(fields)}\n{_ENTRY_INDENT}}}"


@dataclass(frozen=True)
class SweepReport:
    """A sweep's totals and detail entries.

    The entries of one report share their "params" block (one dict per draw),
    their "signature" block (one list per recorded signature) and their
    "witnessPair", "witnessValue" and "meanCurvature" blocks (one list per
    distinct text, formatted once per part of a draw's recorded signatures
    that shares it); treat them as read-only.
    """

    config: SweepConfig
    signatures_per_draw: int
    total_cases: int
    agreements: int
    disagreements: tuple[dict, ...]
    tg_counterexamples: tuple[dict, ...]
    tg_counterexample_count: int
    minimality_counterexamples: tuple[dict, ...]
    minimality_counterexample_count: int
    resampled_draws: int
    flag_counts: dict

    def to_json_dict(self) -> dict:
        cfg = {
            "family": self.config.family.value,
            "samples": self.config.samples,
            "seed": self.config.seed,
            "parameterRange": self.config.parameter_range,
            "signatureMode": self.config.signature_mode,
        }
        if self.config.fixed_signatures:
            cfg["fixedSignatures"] = [list(sig) for sig in self.config.fixed_signatures]
        return {
            "config": cfg,
            "signaturesPerDraw": self.signatures_per_draw,
            "totalCases": self.total_cases,
            "agreements": self.agreements,
            "disagreements": list(self.disagreements),
            "conjectureCounterexamples": list(self.tg_counterexamples),
            "conjectureCounterexampleCount": self.tg_counterexample_count,
            "minimalityCounterexamples": list(self.minimality_counterexamples),
            "minimalityCounterexampleCount": self.minimality_counterexample_count,
            "resampledDraws": self.resampled_draws,
            "flagCounts": dict(self.flag_counts),
        }

    def to_json(self) -> str:
        """json.dumps(self.to_json_dict(), indent=2) + "\\n", byte for byte.

        json.dumps drops to its pure-Python encoder whenever indent is set.
        This writes the report's fixed layout directly, and each shared params
        or signature block once.
        """
        blocks: dict[int, str] = {}
        fields = []
        for key, value in self.to_json_dict().items():
            if key in _ENTRY_LISTS and value:
                text = "[\n" + ",\n".join(_json_entry(entry, blocks) for entry in value) + "\n  ]"
            else:
                text = _json_block(value, "  ")
            fields.append(f"  {_json_string(key)}: {text}")
        return "{\n" + ",\n".join(fields) + "\n}\n"


def _sample_rng(seed: int, index: int) -> random.Random:
    # Per-sample stream derived from (seed, index): evaluation order never
    # changes the draws, so parallel evaluation would not change the report.
    return random.Random(f"{seed}:{index}")


def _draw_pair(rng: random.Random, bound: int) -> tuple[int, int]:
    # (p, q) with p in [-bound, bound], q in [1, bound]; (0, 1) with probability
    # 1/4 so degenerate strata of the piecewise-linear predicates get hit.
    if rng.random() < 0.25:
        return 0, 1
    # p and q as rng.randint(-bound, bound) and rng.randint(1, bound) draw
    # them: a value below n from n.bit_length() random bits, redrawn while it
    # is n or more (random.Random._randbelow_with_getrandbits), inlined.  The
    # same getrandbits calls in the same order keep the pinned stream.
    getrandbits = rng.getrandbits
    width = 2 * bound + 1
    bits = width.bit_length()
    p = getrandbits(bits)
    while p >= width:
        p = getrandbits(bits)
    bits = bound.bit_length()
    q = getrandbits(bits)
    while q >= bound:
        q = getrandbits(bits)
    return p - bound, q + 1


def _draw_scalar(rng: random.Random, bound: int) -> Fraction:
    p, q = _draw_pair(rng, bound)
    return Fraction(p, q) if p else ZERO


# The circle sampler's draws, in stream order; theta4 is the free value, used when x1 = 0.
_SO2_DRAWN = ("b11", "b21", "c11", "c12", "c21", "c22", "rho", "x1", "y1", "t14", "t24", "theta4")


def _draw_params(
    rng: random.Random, family: FamilyId, bound: int, classes: Sequence[int]
) -> tuple[list[tuple[dict[str, Fraction], tuple[int, ...]]], int]:
    """Draw one member of family for the eps_X*eps_Y classes; returns (draws, rejected attempts).

    draws lists (params, the classes they serve), params being Fractions keyed
    in family_parameter_names order.  A semisimple family's table does not
    depend on the signature: one entry serves every class, and nothing is
    rejected.  A circle family is rejection-sampled on its Jacobi-feasible
    stratum, an attempt being accepted only if it is feasible for every class,
    and gives one entry per class, in classes order, with y2 = x1 and
    x2 = -s*y1.

    Each circle attempt is tested on integers: rho, x1, y1, t14 and t24 times
    the lcm L of their denominators, and for x1 != 0 times 2*x1 as well, which
    makes theta4 = rho*t14/(2*x1) the integer rho*t14.  Every circle relation
    is homogeneous (degree 1 or 2, theta4 counting as degree 1), so scaling by
    a nonzero number keeps each one true or false; Fractions are built for the
    accepted draw only.
    """
    names = family_parameter_names(family)
    if family not in CIRCLE_FAMILIES:
        return [({name: _draw_scalar(rng, bound) for name in names}, tuple(classes))], 0
    attempts = 0
    while True:
        pairs = [_draw_pair(rng, bound) for _ in _SO2_DRAWN]
        (rho, q_rho), (x1, q_x1), (y1, q_y1), (t14, q_t14), (t24, q_t24) = pairs[6:11]
        scale = math.lcm(q_rho, q_x1, q_y1, q_t14, q_t24)
        rho, x1, y1 = rho * (scale // q_rho), x1 * (scale // q_x1), y1 * (scale // q_y1)
        t14, t24 = t14 * (scale // q_t14), t24 * (scale // q_t24)
        # x1 = y2 and x2 = -s*y1 by construction; theta4 is determined unless
        # x1 + y2 = 0, and then relation 5 reads rho*t14 = 0 for any theta4.
        m = 2 * x1 or 1
        theta4 = rho * t14 if x1 else 0
        mx1, my1 = m * x1, m * y1
        scaled = {"x1": mx1, "y1": my1, "y2": mx1, "t14": m * t14, "t24": m * t24, "rho": m * rho, "theta4": theta4}
        for s in classes:
            scaled["x2"] = -s * my1
            if so2_failed_relation(scaled, 1, s):
                break
        else:  # no class failed
            break
        attempts += 1
        if attempts > SO2_MAX_ATTEMPTS:
            raise SamplingError(
                f"{family.value}: no feasible circle-family draw in {SO2_MAX_ATTEMPTS} attempts"
            )
    drawn = {name: Fraction(p, q) if p else ZERO for name, (p, q) in zip(_SO2_DRAWN, pairs)}
    drawn["y2"] = drawn["x1"]
    if x1:  # back in drawn units; a zero is the shared ZERO, as every drawn zero is
        drawn["theta4"] = Fraction(theta4, m * scale) if theta4 else ZERO
    y1 = drawn["y1"]
    draws = []
    for s in classes:
        drawn["x2"] = -y1 if s > 0 and y1 else y1
        draws.append(({name: drawn[name] for name in names}, (s,)))
    return draws, attempts


def _describe(family: FamilyId, params_text: dict, signature: list[int]) -> dict:
    """The head of a detail entry; params_text and signature are shared, not copied."""
    return {"family": family.value, "params": params_text, "signature": signature}


def _texts(vector: Sequence[Fraction]) -> tuple[str, ...]:
    """The components of vector as format_scalar writes them; most are zero, and a zero is "0"."""
    return tuple(format_scalar(v) if v else "0" for v in vector)


class _Blocks(dict):
    """One list per distinct tuple, so a report's entries share their signature, witness and curvature blocks."""

    def __missing__(self, texts: tuple[str, ...]) -> list[str]:
        block = self[texts] = list(texts)
        return block


def _bits(mask: int):
    """The indices of the set bits of mask, in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _first_bits(mask: int, count: int) -> int:
    """The lowest count set bits of mask, as a mask (all of them if it has fewer)."""
    if mask.bit_count() <= count:
        return mask
    first = 0
    for n in itertools.islice(_bits(mask), count):
        first |= 1 << n
    return first


def _signature_masks(signatures: tuple[tuple[int, ...], ...]) -> tuple[tuple[int, ...], dict[int, int]]:
    """(minus, served): a sweep's signature list as bitmasks, bit n standing for signatures[n].

    minus[k] holds the signatures with eps_k = -1, so a verdict that depends
    on the causal characters only through products eps_i*eps_j is decided
    for every signature at once: eps_i != eps_j exactly on minus[i] ^ minus[j].
    served[s] holds the eps_X*eps_Y class s, the class -1 being
    minus[X] ^ minus[Y].  One signature gives the masks of a single frame.
    """
    minus = [0] * len(signatures[0])
    for n, eps in enumerate(signatures):
        bit = 1 << n
        for k, e in enumerate(eps):
            if e < 0:
                minus[k] |= bit
    split = minus[-2] ^ minus[-1]
    return tuple(minus), {1: ((1 << len(signatures)) - 1) & ~split, -1: split}


class _Case(NamedTuple):
    """What the signatures of one eps_X*eps_Y class of a draw share; a NamedTuple, as FrameFreeVertical is."""

    setup: FoliationSetup
    params_text: dict[str, str]
    horizontal: FrameFreeHorizontal
    vertical: FrameFreeVertical
    flags: tuple[bool, bool, bool]  # geometric: conformal, semi-Riemannian, minimal
    closed: tuple[bool, bool]  # closed form: semi-Riemannian, minimal
    agrees: bool  # conformal, and the geometric flags equal the closed forms
    conditions: tuple  # closed-form totally-geodesic conditions with a nonzero parameter factor


def _draw_cases(config: SweepConfig):
    """Yield (rejected circle attempts, cases) per draw, cases mapping each eps_X*eps_Y class to its _Case.

    Each entry of a _draw_params draw is built once: once per draw for the
    semisimple families, once per class for the circle families, whose x2
    depends on it.  _draw_params has checked a circle draw's relations for
    every class it serves, so the entry is built by families._family_setup,
    which build_family calls after its own check of them.  Only total geodesy
    is left, on both sides, and the consumers decide it per class for all its
    signatures at once.
    """
    family = config.family
    # The first signature of each eps_X*eps_Y class stands for that class.
    class_eps: dict[int, tuple[int, ...]] = {}
    for eps in enumerate_signatures(config):
        class_eps.setdefault(eps[-2] * eps[-1], eps)
    frames = {s: MetricFrame(eps) for s, eps in class_eps.items()}
    for index in range(config.samples):
        rng = _sample_rng(config.seed, index)
        draws, attempts = _draw_params(rng, family, config.parameter_range, tuple(frames))
        cases = {}
        for params, classes in draws:
            spec = FamilySpec(family, params, frames[classes[0]])
            setup = _family_setup(spec)
            horizontal, vertical = FrameFreeHorizontal.from_setup(setup), FrameFreeVertical.from_setup(setup)
            params_text = {name: format_scalar(value) for name, value in params.items()}
            conditions = tuple(nonzero_tg_conditions(family, params))
            closed = (params["x1"] == 0 if family in CIRCLE_FAMILIES else True, closed_form_minimal(spec))
            for s in classes:
                conformal, semi, minimal = flags = horizontal.flags(class_eps[s])
                agrees = conformal and (semi, minimal) == closed
                cases[s] = _Case(setup, params_text, horizontal, vertical, flags, closed, agrees, conditions)
        yield attempts, cases


def _conjecture_entries(config: SweepConfig, cases: dict, recorded: int, block, compact_type: bool) -> list[dict]:
    """One draw's conjecture entries, one per set bit of recorded, in signature order; block is a _Blocks lookup.

    Per class, the first violated condition and the sff_V witness are decided
    for all its recorded signatures at once (_first_failures, witnesses).
    """
    family = config.family
    signatures, minus, served = _signature_plan(family, config.signature_mode, config.fixed_signatures)
    names = family_basis_names(family)
    violated, witness = {}, {}
    for s, case in cases.items():
        within = recorded & served[s]
        if not within:
            continue
        for label, bits in _first_failures(case.conditions, minus, within):
            violated.update(dict.fromkeys(_bits(bits), label))
        for bits, (i, j), vec in case.vertical.witnesses(minus, within):
            texts = block((names[i], names[j])), block(_texts(vec))
            witness.update(dict.fromkeys(_bits(bits), texts))
    entries = []
    for n in _bits(recorded):
        eps = signatures[n]
        entry = _describe(family, cases[eps[-2] * eps[-1]].params_text, block(eps))
        entry["violatedCondition"] = violated.get(n)
        entry["witnessPair"], entry["witnessValue"] = witness[n]
        entry["compactType"] = compact_type
        entries.append(entry)
    return entries


def run_sweep(config: SweepConfig) -> SweepReport:
    """Classify every sampled (draw, signature) case both ways and compare.

    Deterministic given the config (including the seed); disagreements are the
    machine-checked failures of the family's classification statements and are
    expected to be empty.  Per draw and class every verdict is a mask over the
    signatures (bit n for signatures[n], see _signature_masks), and so are the
    parts of a class's recorded conjecture and minimality entries that share
    their violated condition, witness or mean curvature; entries are written
    per set bit, in signature order.
    """
    family = config.family
    signatures, minus, served = _signature_plan(family, config.signature_mode, config.fixed_signatures)
    track_conjectures = family not in CIRCLE_FAMILIES
    compact_type = family in COMPACT_FAMILIES
    block = _Blocks().__getitem__

    disagreements: list[dict] = []
    tg_details: list[dict] = []
    tg_count = 0
    minimality_details: list[dict] = []
    minimality_count = 0
    resampled = 0
    total = n_conformal = n_semi = n_minimal = n_geodesic = 0

    for attempts, cases in _draw_cases(config):
        resampled += attempts
        # This draw's masks: geometric and closed-form total geodesy, disagreements,
        # conformal cases that are not totally geodesic and those that are not minimal.
        geodesic = closed_geodesic = disagree = bent = curved = 0
        for s, case in cases.items():
            within = served[s]
            conformal, semi, minimal = case.flags
            case_geodesic = case.vertical.totally_geodesic(minus, within)
            case_closed = _conditions_hold(case.conditions, minus, within)
            count = within.bit_count()
            total += count
            n_conformal += count if conformal else 0
            n_semi += count if semi else 0
            n_minimal += count if minimal else 0
            n_geodesic += case_geodesic.bit_count()
            geodesic |= case_geodesic
            closed_geodesic |= case_closed
            disagree |= case_geodesic ^ case_closed if case.agrees else within
            if track_conjectures and conformal:
                bent |= within ^ case_geodesic
                if not minimal:
                    curved |= within
        tg_count += bent.bit_count()
        minimality_count += curved.bit_count()

        for n in _bits(disagree):
            eps = signatures[n]
            case = cases[eps[-2] * eps[-1]]
            conformal, semi, minimal = case.flags
            entry = _describe(family, case.params_text, block(eps))
            entry["geometric"] = {
                "conformal": conformal,
                "semiRiemannian": semi,
                "minimal": minimal,
                "totallyGeodesic": bool(geodesic >> n & 1),
            }
            entry["closedForm"] = {
                "conformal": True,
                "semiRiemannian": case.closed[0],
                "minimal": case.closed[1],
                "totallyGeodesic": bool(closed_geodesic >> n & 1),
            }
            disagreements.append(entry)

        # The recorded entries of this draw: the first set bits, up to the cap.
        recorded = _first_bits(bent, DETAIL_CAP - len(tg_details))
        if recorded:
            tg_details += _conjecture_entries(config, cases, recorded, block, compact_type)

        recorded = _first_bits(curved, DETAIL_CAP - len(minimality_details))
        if recorded:
            # The mean curvature depends on eps only through eps_X and eps_Y, and
            # eps_Y = s*eps_X on class s, so eps_X splits a class into two parts.
            mean = {}
            for s, case in cases.items():
                within, x = recorded & served[s], case.horizontal.horizontal[0]
                for bits in (within & minus[x], within & ~minus[x]):
                    if bits:
                        eps = signatures[(bits & -bits).bit_length() - 1]
                        texts = block(_texts(case.horizontal.mean_curvature(eps)))
                        mean.update(dict.fromkeys(_bits(bits), texts))
            for n in _bits(recorded):
                eps = signatures[n]
                entry = _describe(family, cases[eps[-2] * eps[-1]].params_text, block(eps))
                entry["meanCurvature"] = mean[n]
                minimality_details.append(entry)

    return SweepReport(
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
        flag_counts={
            "conformal": n_conformal,
            "semiRiemannian": n_semi,
            "minimal": n_minimal,
            "totallyGeodesic": n_geodesic,
        },
    )


def find_conjecture_counterexamples(config: SweepConfig) -> list[dict]:
    """Search for conformal, semisimple-vertical members that are not totally geodesic.

    Only meaningful for the semisimple families (the premise needs a
    semisimple subgroup).  Per draw one build and a mask of hits, as in the
    sweep; their entries come from the sweep's builder (_conjecture_entries),
    with compactType from the vertical Killing form, once per draw with a hit.
    Per hit, classify in its frame re-verifies it (ReverificationError if it
    does not) and gives "minimal".  The entries of one call share their
    params, signature and witness lists; treat them as read-only.
    """
    family = config.family
    if family in CIRCLE_FAMILIES:
        raise StructureError(
            f"{family.value} has a non-semisimple vertical subalgebra; "
            "the conjecture premise requires a semisimple one"
        )
    signatures, minus, served = _signature_plan(family, config.signature_mode, config.fixed_signatures)
    block = _Blocks().__getitem__
    results: list[dict] = []
    for _, cases in _draw_cases(config):
        hits = 0
        for s, case in cases.items():
            if case.flags[0]:  # conformal
                within = served[s]
                hits |= within ^ case.vertical.totally_geodesic(minus, within)
        if not hits:
            continue
        setup = next(iter(cases.values())).setup  # a semisimple table does not depend on the class
        compact_type = is_negative_definite(killing_form(setup.tensor, setup.vertical))
        for n, entry in zip(_bits(hits), _conjecture_entries(config, cases, hits, block, compact_type)):
            eps = signatures[n]
            minimal = cases[eps[-2] * eps[-1]].flags[2]
            hit = FoliationSetup(setup.tensor, MetricFrame(eps), setup.vertical, setup.horizontal)
            report = classify(hit, require_jacobi=False)
            if (report.conformal, report.totally_geodesic, report.minimal) != (True, False, minimal):
                raise ReverificationError(
                    f"{family.value} params {entry['params']} signature {list(eps)}: classify gives "
                    f"conformal={report.conformal}, totally geodesic={report.totally_geodesic}, "
                    f"minimal={report.minimal}, not the search's True, False, {minimal}"
                )
            entry["minimal"] = report.minimal
            results.append(entry)
    return results


@dataclass(frozen=True)
class ThetaSolution:
    """Solution set of the [X, Y] coefficients under the Jacobi identity."""

    status: str  # "unique" | "affine" | "infeasible"
    theta: tuple[Fraction, ...] | None
    free_directions: tuple[tuple[Fraction, ...], ...]

    @property
    def dimension(self) -> int:
        return len(self.free_directions)


def oracle_solve_theta(spec: FamilySpec) -> ThetaSolution:
    """Solve for the [X, Y] vertical coefficients directly from the Jacobi identity.

    The residual is affine in theta (theta only enters the [X, Y] row, and the
    vertical factor it multiplies is central or a bracket partner at most
    once), so probing theta = 0 and the unit vectors assembles an exact linear
    system: one equation per (triple, component) entry that is nonzero in
    some probe, in sorted order (the others read 0 = 0).  Independent of
    closed_form_theta.
    """
    dim = family_dimension(spec.family)
    m = dim - 2
    one = Fraction(1)
    probes = [(ZERO,) * m] + [tuple(one if t == pos else ZERO for t in range(m)) for pos in range(m)]
    tables = (StructureTensor.from_rows(dim, _family_rows(spec.family, spec.params, p)) for p in probes)
    residuals = [dict(jacobi_residual(table).violations) for table in tables]
    entries = sorted(
        {(triple, k) for residual in residuals for triple, vec in residual.items() for k, v in enumerate(vec) if v}
    )
    base, *units = (
        [residual[triple][k] if triple in residual else ZERO for triple, k in entries]
        for residual in residuals
    )
    rows = [[unit[r] - b for unit in units] for r, b in enumerate(base)]
    solution = solve_linear_system(rows, [-b for b in base])
    return ThetaSolution(solution.status, solution.particular, solution.nullspace)


def oracle_conformal_from_definition(
    setup: FoliationSetup,
) -> tuple[bool, tuple[Fraction, ...] | None]:
    """Definition-level conformality: a single vertical V with sff_H = g (x) V.

    Checks the three independent horizontal pairs directly against a candidate
    V; cross-checks the frame criteria used by classify.
    """
    bh = second_fundamental_form_horizontal(setup)
    x, y = setup.horizontal
    eps_x, eps_y = setup.frame.epsilon[x], setup.frame.epsilon[y]
    candidate = tuple(eps_x * v for v in bh.xx)  # g(X,X) V = sff_H(X,X)
    if any(bh.xy):
        return False, None
    if any(b != eps_y * v for b, v in zip(bh.yy, candidate)):
        return False, None
    return True, candidate
