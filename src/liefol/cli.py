"""Command-line front end: check setup documents, emit families, run sweeps.

Document format (JSON): {"dim": int, "epsilon": [+-1, ...],
"brackets": [{"i": int, "j": int, "coeffs": ["p/q", ...]}, ...] with i < j and
each pair at most once (the mirror rows are implied), "vertical": [ints],
"horizontal": [i, j], optional "meta": object}.  Rationals travel as strings
so no floating point ever enters the exact pipeline.

Exit codes: 0 ok; 1 sweep found disagreements, or a counterexample hit
failed its re-verification; 2 Jacobi failure; 3 parse /
unknown-family / invalid-argument error (usage errors too, with one line
instead of argparse's usage text and code 2), unwritable output path, or a
document file larger than MAX_DOCUMENT_BYTES, with dim above MAX_DIM or with
an epsilon list whose length is not dim; 4 family constraint violation; 5 the
circle-family sampler found no feasible draw.

Output files (`family --out`, `sweep --json`) are written to a temporary file
next to the path and renamed onto it, so the path never holds a partial file.
A symlinked path is written through: the link stays and its target gets the
output.  A path that exists and is not a regular file (a FIFO or a device) is
written in place, so a reader on the FIFO gets the output.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import re
import reprlib
import sys
from collections import Counter
from fractions import Fraction
from typing import Sequence

from .algebra import (
    ConstraintError,
    FoliationSetup,
    JacobiError,
    MetricFrame,
    StructureError,
    StructureTensor,
    as_scalar,
    format_scalar,
)
from .families import (
    CIRCLE_FAMILIES,
    FamilyId,
    FamilySpec,
    build_family,
    closed_form_theta,
    family_basis_names,
)
from .geometry import classify
from .verifier import (
    ReverificationError,
    SamplingError,
    SweepConfig,
    find_conjecture_counterexamples,
    run_sweep,
)

EXIT_OK = 0
EXIT_DISAGREEMENT = 1
EXIT_JACOBI = 2
EXIT_PARSE = 3
EXIT_CONSTRAINT = 4
EXIT_SAMPLING = 5

# Largest accepted document dimension: the bracket table is dense, dim^3
# entries, and the Jacobi check grows like dim^5.
MAX_DIM = 64

# Largest accepted document file, in bytes: the whole file is read and parsed
# before any field is checked, so only a size cap bounds that memory.  16 MiB is
# about 15x a dense dim-MAX_DIM document with "p/q" literals like "-1/2" (1.1 MB).
MAX_DOCUMENT_BYTES = 16 * 1024 * 1024


class ParseError(ValueError):
    """Document or argument parsing failure; `field` names the offending field."""

    def __init__(self, field: str, message: str):
        super().__init__(f"{field}: {message}")
        self.field = field


def _require(doc: dict, field: str, kind, what: str):
    if field not in doc:
        raise ParseError(field, "missing required field")
    value = doc[field]
    if not isinstance(value, kind) or isinstance(value, bool):
        raise ParseError(field, f"expected {what}")
    return value


def _parse_coeff(value, where: str) -> Fraction:
    try:
        return as_scalar(value)
    except StructureError as exc:
        raise ParseError(where, str(exc)) from None


def document_to_setup(doc: dict) -> tuple[FoliationSetup, dict | None]:
    """Validate and build a foliation setup from a parsed document."""
    if not isinstance(doc, dict):
        raise ParseError("document", "top level must be an object")
    dim = _require(doc, "dim", int, "an integer")
    if dim < 1:
        raise ParseError("dim", "must be positive")
    if dim > MAX_DIM:
        raise ParseError("dim", f"must be at most {MAX_DIM}, got {reprlib.repr(dim)}")
    epsilon = _require(doc, "epsilon", list, "a list of +-1")
    brackets = _require(doc, "brackets", list, "a list of bracket rows")
    vertical = _require(doc, "vertical", list, "a list of indices")
    horizontal = _require(doc, "horizontal", list, "a pair of indices")

    for field, values in (("epsilon", epsilon), ("vertical", vertical), ("horizontal", horizontal)):
        for v in values:
            if not isinstance(v, int) or isinstance(v, bool):
                raise ParseError(field, f"entries must be integers, got {reprlib.repr(v)}")
    if len(epsilon) != dim:
        raise ParseError("epsilon", f"expected {dim} entries, got {len(epsilon)}")

    rows: dict[tuple[int, int], list[Fraction]] = {}
    for pos, entry in enumerate(brackets):
        where = f"brackets[{pos}]"
        if not isinstance(entry, dict):
            raise ParseError(where, "expected an object with i, j, coeffs")
        i = _require(entry, "i", int, "an integer")
        j = _require(entry, "j", int, "an integer")
        coeffs = _require(entry, "coeffs", list, "a list of rationals")
        if not (0 <= i < j < dim):
            raise ParseError(where, f"need 0 <= i < j < dim, got i={reprlib.repr(i)}, j={reprlib.repr(j)}")
        if (i, j) in rows:
            raise ParseError(where, f"pair ({i}, {j}) listed more than once")
        if len(coeffs) != dim:
            raise ParseError(f"{where}.coeffs", f"expected {dim} entries, got {len(coeffs)}")
        rows[(i, j)] = [_parse_coeff(v, f"{where}.coeffs[{k}]") for k, v in enumerate(coeffs)]

    meta = doc.get("meta")
    if meta is not None and not isinstance(meta, dict):
        raise ParseError("meta", "must be an object when present")
    try:
        tensor = StructureTensor.from_rows(dim, rows)
        frame = MetricFrame(tuple(epsilon))
        setup = FoliationSetup(tensor, frame, tuple(vertical), tuple(horizontal))
    except StructureError as exc:
        raise ParseError("document", str(exc)) from None
    return setup, meta


def setup_to_document(setup: FoliationSetup, meta: dict | None = None) -> dict:
    dim = setup.dim
    brackets = []
    for i in range(dim):
        for j in range(i + 1, dim):
            row = setup.tensor.c[i][j]
            if any(row):
                brackets.append(
                    {"i": i, "j": j, "coeffs": [format_scalar(v) for v in row]}
                )
    doc = {
        "dim": dim,
        "epsilon": list(setup.frame.epsilon),
        "brackets": brackets,
        "vertical": list(setup.vertical),
        "horizontal": list(setup.horizontal),
    }
    if meta:
        doc["meta"] = meta
    return doc


def _object_without_repeats(pairs: list) -> dict:
    """A JSON object as a dict; a key given twice is a ParseError (json.loads keeps its last value)."""
    obj = dict(pairs)
    if len(obj) != len(pairs):
        key = next(key for key, count in Counter(key for key, _ in pairs).items() if count > 1)
        raise ParseError("file", f"key {reprlib.repr(key)} given more than once in an object")
    return obj


def load_document(path: str) -> tuple[FoliationSetup, dict | None]:
    try:
        with open(path, "rb") as handle:
            data = handle.read(MAX_DOCUMENT_BYTES + 1)
    except OSError as exc:
        raise ParseError("file", str(exc)) from None
    if len(data) > MAX_DOCUMENT_BYTES:
        raise ParseError("file", f"larger than {MAX_DOCUMENT_BYTES} bytes")
    try:
        # Decoded here: json.loads would also take UTF-16 or UTF-32 bytes.
        doc = json.loads(data.decode("utf-8"), object_pairs_hook=_object_without_repeats)
    except ParseError:  # a ValueError, from the hook: not the over-long integer below
        raise
    except json.JSONDecodeError as exc:
        raise ParseError("file", f"invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}") from None
    except RecursionError:
        raise ParseError("file", "invalid JSON: nested too deeply") from None
    except UnicodeDecodeError:
        raise ParseError("file", "not UTF-8 text") from None
    except ValueError:
        # Not a JSONDecodeError: json.loads converts integers with int(), which
        # refuses more than sys.get_int_max_str_digits() digits.
        raise ParseError(
            "file", f"invalid JSON: an integer of more than {sys.get_int_max_str_digits()} digits"
        ) from None
    return document_to_setup(doc)


def _basis_names(setup: FoliationSetup, meta: dict | None) -> list[str]:
    if meta and isinstance(meta.get("basis"), list) and len(meta["basis"]) == setup.dim:
        return [str(n) for n in meta["basis"]]
    return [f"e{i}" for i in range(setup.dim)]


def format_vector(vec: Sequence[Fraction], names: Sequence[str]) -> str:
    terms = []
    for coeff, name in zip(vec, names):
        if not coeff:
            continue
        if coeff == 1:
            terms.append(f"+ {name}")
        elif coeff == -1:
            terms.append(f"- {name}")
        elif coeff > 0:
            terms.append(f"+ {format_scalar(coeff)} {name}")
        else:
            terms.append(f"- {format_scalar(-coeff)} {name}")
    if not terms:
        return "0"
    head = terms[0][2:] if terms[0].startswith("+ ") else "-" + terms[0][2:]
    return " ".join([head] + terms[1:])


def _yesno(flag: bool) -> str:
    return "yes" if flag else "no"


def cmd_check(args) -> int:
    try:
        setup, meta = load_document(args.path)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    names = _basis_names(setup, meta)
    try:
        result = classify(setup)
    except JacobiError as exc:
        i, j, k = exc.report.worst_triple
        print(
            f"jacobi: FAIL (max residual {format_scalar(exc.report.max_abs)} "
            f"at triple ({names[i]}, {names[j]}, {names[k]}))"
        )
        return EXIT_JACOBI
    print("jacobi: ok")
    print(f"conformal: {_yesno(result.conformal)}")
    print(f"semi-riemannian: {_yesno(result.semi_riemannian)}")
    print(f"minimal: {_yesno(result.minimal)}")
    print(f"totally geodesic: {_yesno(result.totally_geodesic)}")
    if not result.totally_geodesic:
        for (i, j), vec in result.totally_geodesic_witnesses:
            print(f"  B^V({names[i]}, {names[j]}) = {format_vector(vec, names)}")
    print(f"mean curvature: {format_vector(result.mean_curvature, names)}")
    print(f"conformal vector: {format_vector(result.conformal_vector, names)}")
    return EXIT_OK


def _parse_params(pairs: list[str]) -> dict[str, str]:
    params: dict[str, str] = {}
    for pair in pairs:
        if "=" not in pair:
            raise ParseError("--param", f"expected name=value, got {reprlib.repr(pair)}")
        name, value = (part.strip() for part in pair.split("=", 1))
        if name in params:
            raise ParseError("--param", f"parameter {reprlib.repr(name)} given more than once")
        params[name] = value
    return params


# An integer on the command line, an option value or a causal character: ASCII
# digits only (int() would also take other scripts' digits and underscores).
_ASCII_INTEGER = re.compile(r"[+-]?[0-9]+")


def _ascii_int(text: str) -> int:
    """The argparse type of the integer options, and the parser of each causal character."""
    if not _ASCII_INTEGER.fullmatch(text.strip()):
        raise argparse.ArgumentTypeError(f"expected an ASCII integer, got {reprlib.repr(text)}")
    try:
        return int(text)
    except ValueError:  # int() refuses more than sys.get_int_max_str_digits() digits
        raise argparse.ArgumentTypeError(
            f"an integer of more than {sys.get_int_max_str_digits()} digits"
        ) from None


def _parse_epsilon(text: str, option: str = "--epsilon") -> tuple[int, ...]:
    try:
        return tuple(_ascii_int(part) for part in text.split(","))
    except argparse.ArgumentTypeError:
        raise ParseError(option, f"expected comma-separated +-1 list, got {reprlib.repr(text)}") from None


def cmd_family(args) -> int:
    try:
        family = FamilyId.parse(args.family)
        params = _parse_params(args.param or [])
        signature = None if args.epsilon is None else _parse_epsilon(args.epsilon)
        spec = FamilySpec.create(family, params, signature)
    except (ParseError, StructureError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    try:
        setup = build_family(spec)
    except ConstraintError as exc:
        print(f"constraint violation: {exc} [{exc.relation}]", file=sys.stderr)
        return EXIT_CONSTRAINT
    theta = closed_form_theta(spec)
    meta = {
        "family": family.value,
        "basis": list(family_basis_names(family)),
        "parameters": {k: format_scalar(v) for k, v in spec.params.items()},
        "theta": {f"theta{i + 1}": format_scalar(t) for i, t in enumerate(theta)},
    }
    text = json.dumps(setup_to_document(setup, meta), indent=2) + "\n"
    try:
        with _output_file(args.out, "--out") if args.out is not None else contextlib.nullcontext(sys.stdout) as out:
            out.write(text)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    return EXIT_OK


@contextlib.contextmanager
def _output_file(path: str, option: str):
    """A temporary file next to path, renamed onto it if the block succeeds and removed otherwise.

    The output goes through a symlink to its target (a dangling link creates
    it; a loop is refused), and an existing path that is not a regular file (a
    FIFO, a device) is written in place.  The file is opened on entry, so an
    unusable path fails before the block runs; that, a path that names a
    directory (one whose last component is empty, "." or "..") and a failed
    write or rename are a ParseError naming path as given, an empty path one
    naming option.
    """
    if not path:
        raise ParseError(option, "empty output path")
    if os.path.isdir(path):
        raise ParseError(path, "is a directory")
    # realpath drops a trailing "/" or "/.", so the file would be written without it.
    if os.path.basename(path) in ("", ".", ".."):
        raise ParseError(path, "names a directory")
    real = os.path.realpath(path)
    if os.path.islink(real):  # realpath stops at a symlink loop; a rename would replace the link
        raise ParseError(path, "is a symlink loop")
    in_place = os.path.exists(real) and not os.path.isfile(real)
    directory, name = os.path.split(real)
    target = real if in_place else os.path.join(directory, f".{name}.{os.urandom(4).hex()}.tmp")
    try:
        out = open(target, "w" if in_place else "x", encoding="utf-8")
    except OSError as exc:
        raise ParseError(path, exc.strerror or str(exc)) from None
    try:
        with out:
            yield out
        if not in_place:
            os.replace(target, real)
    except OSError as exc:
        raise ParseError(path, exc.strerror or str(exc)) from None
    finally:
        if not in_place:
            with contextlib.suppress(FileNotFoundError):
                os.remove(target)


def _signature_config(args, family: FamilyId) -> SweepConfig:
    chunks = args.signatures or ["all"]
    if chunks in (["all"], ["riemannian-only"]):
        mode, fixed = chunks[0], ()
    else:
        mode, fixed = "fixed", tuple(_parse_epsilon(chunk, "--signatures") for chunk in chunks)
    return SweepConfig(
        family=family,
        samples=args.samples,
        seed=args.seed,
        parameter_range=args.range,
        signature_mode=mode,
        fixed_signatures=fixed,
    )


def cmd_sweep(args) -> int:
    try:
        family = FamilyId.parse(args.family)
        config = _signature_config(args, family)
        with _output_file(args.json, "--json") if args.json is not None else contextlib.nullcontext() as out:
            report = run_sweep(config)
            if out:
                out.write(report.to_json())
    except (ParseError, StructureError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except SamplingError as exc:
        print(f"sampling error: {exc}", file=sys.stderr)
        return EXIT_SAMPLING
    total = report.total_cases
    print(f"family: {family.value}")
    print(f"samples: {config.samples}")
    print(f"signatures per draw: {report.signatures_per_draw}")
    print(f"total cases: {total}")
    print(f"disagreements: {len(report.disagreements)}")
    print("flag counts:")
    labels = (
        ("conformal", "conformal"),
        ("semiRiemannian", "semi-riemannian"),
        ("minimal", "minimal"),
        ("totallyGeodesic", "totally geodesic"),
    )
    for key, label in labels:
        print(f"  {label}: {report.flag_counts[key]}/{total}")
    if family in CIRCLE_FAMILIES:
        verdict = "confirmed" if not report.disagreements else "VIOLATED"
        print(f"minimal iff t14 = t24 = 0: {verdict}")
        print(f"resampled draws: {report.resampled_draws}")
    else:
        print(
            "totally-geodesic conjecture counterexamples: "
            f"{report.tg_counterexample_count}"
        )
        print(f"minimality counterexamples: {report.minimality_counterexample_count}")
    if args.json is not None:
        print(f"report written to {args.json}")
    return EXIT_DISAGREEMENT if report.disagreements else EXIT_OK


def cmd_counterexample(args) -> int:
    try:
        family = FamilyId.parse(args.family)
        if args.max_print < 0:
            raise ParseError("--max-print", f"must be >= 0, got {args.max_print}")
        config = _signature_config(args, family)
        hits = find_conjecture_counterexamples(config)
    except (ParseError, StructureError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ReverificationError as exc:
        print(f"re-verification error: {exc}", file=sys.stderr)
        return EXIT_DISAGREEMENT
    if not hits:
        scope = "in Riemannian signature " if config.signature_mode == "riemannian-only" else ""
        print(
            f"none (no conformal instance with a totally-geodesic violation found "
            f"{scope}for this family; {config.samples} samples, seed {config.seed})"
        )
        return EXIT_OK
    shown = hits[: args.max_print]
    print(f"found {len(hits)} counterexample case(s); showing {len(shown)}")
    for pos, entry in enumerate(shown, start=1):
        print(f"counterexample {pos}:")
        print(f"  family: {entry['family']}")
        print(f"  signature: {entry['signature']}")
        nonzero = {k: v for k, v in entry["params"].items() if v != "0"}
        if nonzero:
            rendered = ", ".join(f"{k} = {v}" for k, v in nonzero.items())
            print(f"  nonzero parameters: {rendered} (all others 0)")
        else:
            print("  nonzero parameters: none")
        print(f"  violated condition: {entry['violatedCondition']} != 0")
        names = family_basis_names(family)
        vec = tuple(as_scalar(v) for v in entry["witnessValue"])
        pair = entry["witnessPair"]
        print(f"  witness: B^V({pair[0]}, {pair[1]}) = {format_vector(vec, names)}")
        print(f"  compact-type vertical: {_yesno(entry['compactType'])}")
        print(f"  still minimal: {_yesno(entry['minimal'])}")
    return EXIT_OK


class _ArgumentParser(argparse.ArgumentParser):
    """Usage errors print one line and exit with EXIT_PARSE.

    argparse's own exit code, 2, is this CLI's Jacobi failure.  Subparsers are
    built from the parser's class, so this covers every command.
    """

    def error(self, message: str):
        # argparse echoes rejected values in full (an invalid choice, unrecognized
        # arguments), newlines included; the message is cut to one short line.
        message = " ".join(message.split())
        self.exit(EXIT_PARSE, f"error: {message if len(message) <= 200 else message[:197] + '...'}\n")


class _Once(argparse.Action):
    """Store an option's value, refusing a second occurrence (argparse's store keeps the last one)."""

    def __call__(self, parser, namespace, values, option_string=None):
        given = vars(namespace).setdefault("_given", set())
        if self.dest in given:
            raise argparse.ArgumentError(self, "given more than once")
        given.add(self.dest)
        setattr(namespace, self.dest, values)


def _add_sweep_options(parser: argparse.ArgumentParser, samples: int) -> None:
    """The family and sampling arguments of sweep and counterexample; only the --samples default differs."""
    parser.add_argument("family")
    parser.add_argument("--samples", action=_Once, type=_ascii_int, default=samples)
    parser.add_argument("--seed", action=_Once, type=_ascii_int, default=0)
    parser.add_argument(
        "--range", action=_Once, type=_ascii_int, default=10, help="bound for rational numerators/denominators"
    )
    parser.add_argument(
        "--signatures",
        nargs="+",
        action="extend",
        default=[],
        help="'all' (the default), 'riemannian-only', or one or more comma-separated epsilon lists",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="liefol",
        description=(
            "Classify left-invariant codimension-two foliations on semi-Riemannian "
            "Lie groups with exact rational arithmetic."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="classify a setup document")
    p_check.add_argument("path", help="setup document (JSON)")
    p_check.set_defaults(func=cmd_check)

    p_family = sub.add_parser("family", help="emit a classified family member as a document")
    p_family.add_argument("family", help="family id (su2, sl2r, su2xsu2, su2xsl2r, su2xso2, sl2rxso2)")
    p_family.add_argument("--param", nargs="*", action="extend", default=[], metavar="NAME=VALUE")
    p_family.add_argument("--epsilon", action=_Once, help="comma-separated causal characters, e.g. 1,-1,1,1,1")
    p_family.add_argument("--out", action=_Once, help="output path (stdout if omitted)")
    p_family.set_defaults(func=cmd_family)

    p_sweep = sub.add_parser("sweep", help="randomized classification sweep with closed-form cross-check")
    _add_sweep_options(p_sweep, samples=100)
    p_sweep.add_argument("--json", action=_Once, help="write the machine-readable report here")
    p_sweep.set_defaults(func=cmd_sweep)

    p_ce = sub.add_parser("counterexample", help="search for conformal, non-totally-geodesic instances")
    _add_sweep_options(p_ce, samples=200)
    p_ce.add_argument("--max-print", action=_Once, type=_ascii_int, default=5)
    p_ce.set_defaults(func=cmd_counterexample)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser main uses, built on its first call.

    parse_args keeps nothing between calls: each returns a new namespace, and
    the extend actions copy their list defaults before adding to them.
    """
    return build_parser()


def main(argv: Sequence[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
