"""The benchmark workloads: seeded inputs, one measured round, exact checks.

A round is a fixed list of operations, so every round of a workload costs
about the same and rounds can be compared.  Round lists are chosen so that
p50 and p90 of the pooled operations fall inside one group of similar
operations, never on the boundary between two groups.  Every
operation's output is checked; a wrong output or an exception counts as a
failed operation, never as a crash of the benchmark.

* sweep-all-signatures: run_sweep with every signature (32 or 256 cases per
  draw) on the four semisimple families, the A2 shape.  The per-case path
  (FamilySpec.create, FoliationSetup, classify, closed forms) dominates.
* sweep-one-signature: run_sweep in Riemannian signature only (one case per
  draw), the A3 shape, on su2xso2, sl2rxso2 and su2xsu2.  The per-draw path
  dominates: the circle rejection sampler, table assembly and Jacobi.
* check-docs: `liefol check` in-process on generated documents, mostly small
  with a tail to dim 24; one in five breaks Jacobi by construction.  One large
  sparse table is parsed and a dense Jacobi runs once per input.
* verify-oracles: the A7 cross-checks (theta linear solve, Koszul-route sff_V,
  definition-level conformality) on all six families, plus the conjecture
  counterexample search.  The only workload that reaches linalg.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import traceback
from dataclasses import dataclass, field
from time import perf_counter

import gen

DEFAULT_SEED = 1

# One round: (family, samples) of each run_sweep call.  With all signatures
# every call has 256 cases; two thirds of the calls are dim-5 families, so
# p50 and p90 each fall inside one group of calls, never between two.  In
# Riemannian signature each family has a third of the calls, four draws each.
SWEEP_ALL = (("su2", 8), ("sl2r", 8)) * 2 + (("su2xsu2", 1), ("su2xsl2r", 1))
SWEEP_ONE = (("su2xso2", 4), ("sl2rxso2", 4), ("su2xsu2", 4)) * 2

# Fixed signature set of the counterexample search; eps_B = -eps_A makes
# b11 != 0 a compact-type counterexample (A6).
SEARCH_SIGNATURES = {
    5: ((1, -1, 1, 1, 1), (1, 1, 1, 1, 1)),
    8: ((1, -1, 1, 1, 1, 1, 1, 1), (1, 1, 1, 1, 1, 1, 1, 1)),
}
COMPACT = ("su2", "su2xsu2")

# Sweeps whose CLI `--json` reports are pinned by digest (reference.json).
REFERENCE_SWEEPS = (("su2", 2, "all"), ("sl2rxso2", 2, "all"), ("su2xso2", 4, "riemannian-only"))


def round_seed(seed: int, k: int, op: int = 0) -> int:
    return (seed * 1_000_000 + k) * 100 + op


@dataclass
class Round:
    cases: int = 0
    latencies: list = field(default_factory=list)  # seconds, one per timed operation
    probe_s: float = 0.0  # machine speed around the round (run.probe)
    attempted: int = 0
    failed: int = 0


class Context:
    """Per-run state: the loaded package, seed, scratch dir, tracer and tallies."""

    def __init__(self, lf, seed: int, workdir):
        self.lf = lf
        self.seed = seed
        self.workdir = workdir
        self.tracer = None
        self.errors: list[str] = []
        self.circle_samples = 0
        self.circle_resampled = 0
        self.expected_reference: dict | None = None

    def untraced(self):
        return self.tracer.suspended() if self.tracer else contextlib.nullcontext()

    def attempt(self, rnd: Round, op) -> object:
        """Run one checked operation; `op` returns (ok, value, seconds)."""
        rnd.attempted += 1
        try:
            ok, value, seconds = op()
        except Exception:
            ok, value, seconds = False, None, None
            self.fail(traceback.format_exc())
        if not ok:
            rnd.failed += 1
            if value is not None:
                self.fail(f"wrong output: {value!r}"[:500])
        if seconds is not None:
            rnd.latencies.append(seconds)
        return value

    def fail(self, message: str) -> None:
        if len(self.errors) < 5:
            self.errors.append(message)


# -- sweeps ----------------------------------------------------------------------

def signatures_per_draw(family: str, mode: str) -> int:
    return 2 ** gen.FAMILY_DIM[family] if mode == "all" else 1


def sweep_op(ctx: Context, family: str, samples: int, seed: int, mode: str):
    lf = ctx.lf
    config = lf.SweepConfig(family=lf.FamilyId(family), samples=samples, seed=seed, signature_mode=mode)
    start = perf_counter()
    report = lf.run_sweep(config)
    text = report.to_json()
    seconds = perf_counter() - start
    total = samples * signatures_per_draw(family, mode)
    doc = json.loads(text)
    ok = (report.total_cases == total and report.agreements == total
          and not report.disagreements and doc["totalCases"] == total)
    if family in gen.CIRCLE:
        ctx.circle_samples += samples
        ctx.circle_resampled += report.resampled_draws
    return ok, (family, samples, seed, mode, text), seconds


def cli_sweep_text(ctx: Context, family: str, samples: int, seed: int, mode: str) -> tuple[int, str]:
    path = ctx.workdir / f"sweep-{family}-{samples}-{seed}-{mode}.json"
    argv = ["sweep", family, "--samples", str(samples), "--seed", str(seed),
            "--signatures", mode, "--json", str(path)]
    with contextlib.redirect_stdout(io.StringIO()):
        code = ctx.lf.cli.main(argv)
    text = path.read_text(encoding="utf-8")
    path.unlink()
    return code, text


def sweep_round(plan, mode):
    def run_round(ctx: Context, state: dict, k: int) -> Round:
        rnd = Round()
        for op, (family, samples) in enumerate(plan):
            value = ctx.attempt(rnd, lambda: sweep_op(ctx, family, samples, round_seed(ctx.seed, k, op), mode))
            rnd.cases += samples * signatures_per_draw(family, mode)
            if k == 0 and value is not None:
                state.setdefault("first", {})[op] = value
        return rnd

    return run_round


def sweep_setup(plan, mode):
    def setup(ctx: Context) -> dict:
        warm = Round()
        for family in dict(plan):
            ctx.attempt(warm, lambda: sweep_op(ctx, family, 1, -1, mode))
        ctx.circle_samples = ctx.circle_resampled = 0
        return {"warm": warm}

    return setup


def sweep_gate(ctx: Context, state: dict, rnd: Round) -> None:
    """The first round's reports must equal `liefol sweep --json` byte for byte."""
    for family, samples, seed, mode, text in state.get("first", {}).values():
        ctx.attempt(rnd, lambda: _same_as_cli(ctx, family, samples, seed, mode, text))


def _same_as_cli(ctx, family, samples, seed, mode, text):
    code, cli_text = cli_sweep_text(ctx, family, samples, seed, mode)
    return code == 0 and cli_text == text, (family, samples, seed, mode), None


# -- check documents --------------------------------------------------------------

def expected_check_lines(flags: dict) -> list[str]:
    return ["jacobi: ok"] + [f"{name}: {'yes' if value else 'no'}" for name, value in flags.items()]


def check_op(ctx: Context, path, expected: dict):
    out = io.StringIO()
    start = perf_counter()
    with contextlib.redirect_stdout(out):
        code = ctx.lf.cli.main(["check", str(path)])
    seconds = perf_counter() - start
    lines = out.getvalue().splitlines()
    if expected["flags"] is None:
        ok = code == expected["exit"] and len(lines) == 1 and lines[0].startswith("jacobi: FAIL")
    else:
        ok = code == expected["exit"] and lines[:5] == expected_check_lines(expected["flags"])
    return ok, (str(path), code, lines[:5]), seconds


def write_cycle(ctx: Context, tag, cycle: int, docs) -> list:
    out = []
    for pos, (text, expected) in enumerate(docs):
        path = ctx.workdir / f"doc-{tag}-{cycle}-{pos}.json"
        path.write_text(text, encoding="utf-8")
        out.append((path, expected))
    return out


def docs_setup(ctx: Context) -> dict:
    state = {"cycles": {}, "warm": Round()}
    _doc_cycle(ctx, state, 0)
    for path, expected in reference_docs(ctx):
        ctx.attempt(state["warm"], lambda: check_op(ctx, path, expected))
    return state


def _doc_cycle(ctx: Context, state: dict, k: int) -> list:
    if k not in state["cycles"]:
        with ctx.untraced():
            state["cycles"][k] = write_cycle(ctx, "c", k, gen.document_cycle(ctx.lf, ctx.seed, k))
    return state["cycles"][k]


def docs_round(ctx: Context, state: dict, k: int) -> Round:
    rnd = Round()
    for path, expected in _doc_cycle(ctx, state, k):
        ctx.attempt(rnd, lambda: check_op(ctx, path, expected))
        rnd.cases += 1
    return rnd


def reference_docs(ctx: Context) -> list:
    rng = gen.rng_for("reference-docs", DEFAULT_SEED)
    with ctx.untraced():
        docs = [gen.make_document(ctx.lf, rng, 8, False), gen.make_document(ctx.lf, rng, 9, True)]
        return write_cycle(ctx, "ref", 0, docs)


# -- oracles ----------------------------------------------------------------------

def oracle_op(ctx: Context, family: str, rng):
    lf = ctx.lf
    params, signature = gen.draw_member(rng, family)
    start = perf_counter()
    spec = lf.FamilySpec.create(family, params, signature)
    solution = lf.oracle_solve_theta(spec)
    closed = lf.closed_form_theta(spec)
    setup = lf.build_family(spec)
    report = lf.classify(setup, require_jacobi=False)
    via_connection = lf.geometry.second_fundamental_form_vertical_via_connection(setup, require_jacobi=False)
    by_definition, vector = lf.oracle_conformal_from_definition(setup)
    seconds = perf_counter() - start
    # theta4 is free exactly on the circle stratum x1 = y2 = 0.
    if family in gen.CIRCLE and params["x1"] == 0:
        theta_ok = (solution.status == "affine" and solution.dimension == 1
                    and not any(solution.free_directions[0][:-1])
                    and solution.theta[:-1] == closed[:-1])
    else:
        theta_ok = solution.status == "unique" and solution.theta == closed
    flags = {"conformal": report.conformal, "semi-riemannian": report.semi_riemannian,
             "minimal": report.minimal, "totally geodesic": report.totally_geodesic}
    ok = (theta_ok and flags == gen.expected_flags(lf, spec) and via_connection == report.bv
          and by_definition and vector == report.conformal_vector)
    return ok, (family, {k: str(v) for k, v in params.items()}, signature), seconds


def search_op(ctx: Context, family: str, seed: int):
    """Counterexample search, cross-checked against a sweep of the same draws."""
    lf = ctx.lf
    signatures = SEARCH_SIGNATURES[gen.FAMILY_DIM[family]]
    config = lf.SweepConfig(family=lf.FamilyId(family), samples=1, seed=seed,
                            signature_mode="fixed", fixed_signatures=signatures)
    start = perf_counter()
    hits = lf.find_conjecture_counterexamples(config)
    report = lf.run_sweep(config)
    seconds = perf_counter() - start
    ok = len(hits) == report.tg_counterexample_count and not report.disagreements
    for entry in hits:
        spec = lf.FamilySpec.create(family, entry["params"], entry["signature"])
        first_violated = next(label for label, value in lf.totally_geodesic_conditions(spec) if value)
        ok = ok and (not lf.closed_form_totally_geodesic(spec)
                     and entry["violatedCondition"] == first_violated
                     and entry["compactType"] == (family in COMPACT)
                     and entry["minimal"] is True)
    return ok, (family, seed, len(hits)), seconds


def oracles_round(ctx: Context, state: dict, k: int) -> Round:
    rnd = Round()
    for family in gen.ALL_FAMILIES:
        rng = gen.rng_for("oracle", ctx.seed, k, family)
        ctx.attempt(rnd, lambda: oracle_op(ctx, family, rng))
        rnd.cases += 1
    for op, family in enumerate(gen.SEMISIMPLE):
        ctx.attempt(rnd, lambda: search_op(ctx, family, round_seed(ctx.seed, k, op)))
        rnd.cases += 1
    return rnd


def oracles_setup(ctx: Context) -> dict:
    warm = Round()
    ctx.attempt(warm, lambda: oracle_op(ctx, "su2", gen.rng_for("warm-up")))
    return {"warm": warm}


# -- reference pass ------------------------------------------------------------------

def reference_key(family: str, samples: int, mode: str) -> str:
    return f"{family} --samples {samples} --seed {DEFAULT_SEED} --signatures {mode}"


def reference_digests(ctx: Context) -> dict:
    return {
        reference_key(family, samples, mode):
            hashlib.sha256(cli_sweep_text(ctx, family, samples, DEFAULT_SEED, mode)[1].encode()).hexdigest()
        for family, samples, mode in REFERENCE_SWEEPS
    }


def reference_pass(ctx: Context, rnd: Round) -> None:
    """Fixed default-seed operations run after every measurement, whatever the
    workload: pinned sweep digests, two check documents, one oracle draw and
    one counterexample search.  Every traced callable is reached at least once.
    """
    for family, samples, mode in REFERENCE_SWEEPS:
        key = reference_key(family, samples, mode)

        def pinned():
            code, text = cli_sweep_text(ctx, family, samples, DEFAULT_SEED, mode)
            digest = hashlib.sha256(text.encode()).hexdigest()
            return code == 0 and digest == ctx.expected_reference["sweeps"][key], (key, digest), None

        ctx.attempt(rnd, pinned)
    for path, expected in reference_docs(ctx):
        ctx.attempt(rnd, lambda: check_op(ctx, path, expected)[:2] + (None,))
    ctx.attempt(rnd, lambda: oracle_op(ctx, "su2xso2", gen.rng_for("reference-oracle", DEFAULT_SEED))[:2] + (None,))
    ctx.attempt(rnd, lambda: search_op(ctx, "su2", DEFAULT_SEED)[:2] + (None,))


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    setup: object
    run_round: object
    gate: object = None


WORKLOADS = {
    w.name: w
    for w in (
        Workload("sweep-all-signatures",
                 "A2 shape, all 2^dim signatures per draw: per-case spec, setup, classify and "
                 "closed forms dominate; geometry.* and FamilySpec.create self time move cases_per_probe",
                 sweep_setup(SWEEP_ALL, "all"), sweep_round(SWEEP_ALL, "all"), sweep_gate),
        Workload("sweep-one-signature",
                 "A3 shape, one case per draw: circle sampler, assemble_family_table and "
                 "jacobi_residual dominate; build_family self time and rejects move cases_per_probe",
                 sweep_setup(SWEEP_ONE, "riemannian-only"), sweep_round(SWEEP_ONE, "riemannian-only"),
                 sweep_gate),
        Workload("check-docs",
                 "liefol check on seeded documents up to dim 24, one in five failing Jacobi: "
                 "from_rows and dense jacobi_residual move latency_p90_probes, cli self time p50",
                 docs_setup, docs_round),
        Workload("verify-oracles",
                 "A7 oracle cross-checks on all six families plus the counterexample search: "
                 "the only path into linalg and connection_coefficients, which move cases_per_probe",
                 oracles_setup, oracles_round),
    )
}
