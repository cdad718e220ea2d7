"""liefol benchmark: one process, one workload, one result line.

    python3 bench/run.py --workload sweep-all-signatures --seed 1 --seconds 30 --trace 0

Loads liefol from `src/` next to this directory (never an installed copy),
sets up several times and reports the median, runs whole rounds of the
workload for `--seconds`, checks every output, then runs the correctness
gates.  The last stdout line is the JSON result; the lines before it give each
metric with its unit and sample count, and the environment.

`--trace 0` reports the end-to-end metrics, timings in units of a fixed probe
run between rounds (see `probe` and README.md).  `--trace 1` wraps liefol's public
callables, reports per-callable call counts and self time, then replays the
same rounds untraced to give the tracing overhead.  Spans go to
`.bench_out/`.  `--record-reference` rewrites the pinned sweep digests in
`bench/reference.json` from the current program.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter, process_time

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

REFERENCE_FILE = BENCH_DIR / "reference.json"
OUT_DIR = ROOT / ".bench_out"
# Median probe time, in CPU time, on the host the benchmark was defined on
# (2 cores, Python 3.11); `setup_s` is set-up time scaled to a machine this fast.
PROBE_REFERENCE_S = 0.0028


class BenchmarkError(RuntimeError):
    """The benchmark cannot run here (for example, no liefol sources)."""


def load_liefol():
    """Import liefol afresh from ROOT/src; returns the package with `cli` loaded."""
    src = ROOT / "src"
    if not (src / "liefol" / "__init__.py").is_file():
        raise BenchmarkError(f"no liefol sources under {src}")
    if sys.path[0] != str(src):
        sys.path.insert(0, str(src))
    for name in [n for n in sys.modules if n == "liefol" or n.startswith("liefol.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    package = importlib.import_module("liefol")
    importlib.import_module("liefol.cli")
    if not Path(package.__file__).resolve().is_relative_to(src):
        raise BenchmarkError(f"liefol imported from {package.__file__}, not from {src}")
    return package


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_path = ROOT / ".git" / ref[5:]
    if ref_path.is_file():
        return ref_path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return "unknown"


def quantile(values, q: int) -> float:
    """The q-th percentile as statistics.quantiles(n=100) gives it."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100)[q - 1]


def probe(clock=perf_counter) -> float:
    """Seconds taken by a fixed piece of pure-Python work that calls no liefol code.

    Rational arithmetic and dict updates, the interpreter work liefol's hot
    paths are made of.  Its time tracks how fast the machine runs right now.
    """
    start = clock()
    step, acc, counts = Fraction(3, 7), Fraction(0), {}
    for i in range(1, 600):
        acc += Fraction(i % 7 - 3, i % 5 + 1) * step
    for i in range(4000):
        counts[i % 97] = counts.get(i % 97, 0) + i
    return clock() - start


def cpu_probe_block(n: int = 7) -> list:
    """`n` probes back to back in process CPU time; their median is the
    machine's speed right now."""
    return [probe(process_time) for _ in range(n)]


def run(workload_name: str, seed: int, seconds: float, trace: bool, setup_reps: int = 7) -> dict:
    workload = workloads.WORKLOADS[workload_name]
    reference = json.loads(REFERENCE_FILE.read_text(encoding="utf-8"))
    workdir = OUT_DIR / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    env = {"python": platform.python_version(), "nproc": os.cpu_count(), "commit": git_commit(),
           "loadavg_before": os.getloadavg()}
    try:
        # Set-up: fresh import, input generation, warm-up, timed in process
        # CPU time (set-up is single-threaded, so on a quiet machine this is
        # its wall time, but time spent descheduled does not count).  A block
        # of probes runs before the first set-up and after each one; each
        # set-up is scaled by the median of the probes on either side of it,
        # and the median scaled set-up is reported in reference-host seconds.
        setup_times, setup_scaled = [], []
        probe_blocks = [cpu_probe_block()]
        for _ in range(setup_reps):
            start = process_time()
            lf = load_liefol()
            ctx = workloads.Context(lf, seed, workdir)
            state = workload.setup(ctx)
            setup_times.append(process_time() - start)
            probe_blocks.append(cpu_probe_block())
            speed = statistics.median(probe_blocks[-2] + probe_blocks[-1])
            setup_scaled.append(setup_times[-1] * PROBE_REFERENCE_S / speed)
        ctx.expected_reference = reference
        totals = workloads.Round()
        totals.attempted, totals.failed = state["warm"].attempted, state["warm"].failed

        tracer = Tracer() if trace else None
        if tracer:
            tracer.install()
            ctx.tracer = tracer
            seconds /= 2  # the other half replays the same rounds untraced
        try:
            # A probe runs between rounds; each round is scaled by the mean of
            # the probes on either side of it.
            rounds, probes = [], [probe()]
            start = perf_counter()
            while not rounds or perf_counter() - start < seconds:
                if tracer:
                    tracer.run_id = len(rounds)
                rounds.append(workload.run_round(ctx, state, len(rounds)))
                probes.append(probe())
            measured_s = perf_counter() - start - sum(probes[1:])
            for rnd, before, after in zip(rounds, probes, probes[1:]):
                rnd.probe_s = (before + after) / 2
            if workload.gate:
                workload.gate(ctx, state, totals)
            workloads.reference_pass(ctx, totals)
        finally:
            if tracer:
                tracer.restore()
                ctx.tracer = None

        if tracer:
            circle_samples, circle_resampled = ctx.circle_samples, ctx.circle_resampled
            traced_rounds = len(rounds)
            replay_start = perf_counter()
            rounds += [workload.run_round(ctx, state, k) for k in range(traced_rounds)]
            untraced_s = perf_counter() - replay_start
            metrics = tracer.layer_metrics()
            samples = {name: tracer.calls[name.rsplit(".", 1)[0]] for name in metrics}
            metrics["verifier.sampler.rejects_per_accept"] = (
                circle_resampled / circle_samples if circle_samples else 0.0, "ratio")
            samples["verifier.sampler.rejects_per_accept"] = circle_samples
            metrics["trace.overhead_ratio"] = (measured_s / untraced_s, "ratio")
            samples["trace.overhead_ratio"] = traced_rounds
            OUT_DIR.mkdir(exist_ok=True)
            tracer.write_spans(OUT_DIR / f"spans-{workload_name}-seed{seed}.jsonl")
            env["spans_kept"] = len(tracer.spans)
            env["wait_time"] = "none: one thread, closed loop, no queues"
        else:
            # Figures in probe units: the host's speed swings by up to 2x for
            # minutes at a time, and dividing by the probe cancels the swing.
            rates = [rnd.cases * rnd.probe_s / sum(rnd.latencies) for rnd in rounds]
            scaled = [lat / rnd.probe_s for rnd in rounds for lat in rnd.latencies]
            metrics = {
                "setup_s": (statistics.median(setup_scaled), "s"),
                "cases_per_probe": (statistics.median(rates), "1/probe"),
                "latency_p50_probes": (quantile(scaled, 50), "probe"),
                "latency_p90_probes": (quantile(scaled, 90), "probe"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            }
            samples = {"setup_s": setup_reps, "cases_per_probe": len(rounds), "latency_p50_probes": len(scaled),
                       "latency_p90_probes": len(scaled), "peak_rss_mb": 1}
            latencies = [lat for rnd in rounds for lat in rnd.latencies]
            env["unscaled"] = {
                "setup_cpu_s": statistics.median(setup_times),
                "probe_ms_p50": 1000 * statistics.median(probes),
                "cases_per_s": statistics.median(rnd.cases / sum(rnd.latencies) for rnd in rounds),
                "latency_ms_p50": 1000 * quantile(latencies, 50),
                "latency_ms_p90": 1000 * quantile(latencies, 90),
            }
        for rnd in rounds:
            totals.attempted += rnd.attempted
            totals.failed += rnd.failed
        env["loadavg_after"] = os.getloadavg()
        env["rounds"] = len(rounds)
        env["cases"] = sum(rnd.cases for rnd in rounds)
        return {"metrics": metrics, "samples": samples, "attempted": totals.attempted,
                "failed": totals.failed, "errors": ctx.errors, "env": env}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def record_reference() -> None:
    workdir = OUT_DIR / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        ctx = workloads.Context(load_liefol(), workloads.DEFAULT_SEED, workdir)
        digests = workloads.reference_digests(ctx)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    REFERENCE_FILE.write_text(json.dumps({"sweeps": digests}, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {REFERENCE_FILE}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args(argv)
    try:
        if args.record_reference:
            record_reference()
            return 0
        if not args.workload:
            parser.error("--workload is required")
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchmarkError as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2
    for message in result["errors"]:
        print(f"FAILED: {message}", file=sys.stderr)
    print("env " + json.dumps(result["env"]))
    for name, (value, unit) in result["metrics"].items():
        print(f"metric {name} = {value!r} {unit} (n={result['samples'][name]})")
    error_rate = result["failed"] / result["attempted"]
    print(f"error_rate = {error_rate!r} ({result['failed']} of {result['attempted']} operations)")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
