"""Tests of the benchmark itself: tiny runs of every workload, and gates that bite.

    PYTHONPATH=src python -m pytest bench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import gen  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


def tiny(workload, trace=False):
    return run.run(workload, seed=7, seconds=0.05, trace=trace, setup_reps=1)


def test_spec_lists_every_workload():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert [w["why"] for w in SPEC["workloads"]] == [w.why for w in workloads.WORKLOADS.values()]


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_tiny_run_emits_every_end_to_end_metric(workload):
    result = tiny(workload)
    assert result["failed"] == 0, result["errors"]
    assert {name: unit for name, (_, unit) in result["metrics"].items()} == END_TO_END
    assert all(value > 0 for value, _ in result["metrics"].values())
    assert set(result["samples"]) == set(END_TO_END)


@pytest.mark.parametrize("workload", ["sweep-one-signature", "verify-oracles"])
def test_traced_run_emits_every_layer_metric_and_restores(workload):
    result = tiny(workload, trace=True)
    assert result["failed"] == 0, result["errors"]
    assert {name: unit for name, (_, unit) in result["metrics"].items()} == PER_LAYER
    # The reference pass reaches every traced callable in every workload.
    for name, (value, unit) in result["metrics"].items():
        if name.endswith(".calls"):
            assert value > 0, name
    lf = sys.modules["liefol"]
    for fn in (lf.classify, lf.verifier.classify, lf.geometry.second_fundamental_form_vertical,
               lf.FamilySpec.create, lf.FoliationSetup.__init__, lf.linalg.determinant):
        assert not hasattr(fn, "__wrapped__")


def test_wrong_verdict_expectation_is_counted(monkeypatch):
    real = gen.expected_flags

    def flipped(lf, spec):
        flags = real(lf, spec)
        flags["minimal"] = not flags["minimal"]
        return flags

    monkeypatch.setattr(gen, "expected_flags", flipped)
    result = tiny("check-docs")
    assert result["failed"] > 0
    result = tiny("verify-oracles")
    assert result["failed"] > 0


def test_wrong_case_count_is_counted(monkeypatch):
    monkeypatch.setattr(workloads, "signatures_per_draw", lambda family, mode: 3)
    result = tiny("sweep-all-signatures")
    assert result["failed"] > 0


def test_wrong_reference_digest_is_counted(monkeypatch, tmp_path):
    reference = json.loads(run.REFERENCE_FILE.read_text())
    key = next(iter(reference["sweeps"]))
    reference["sweeps"][key] = "0" * 64
    wrong = tmp_path / "reference.json"
    wrong.write_text(json.dumps(reference))
    monkeypatch.setattr(run, "REFERENCE_FILE", wrong)
    result = tiny("sweep-one-signature")
    assert result["failed"] == 1


def test_perturbed_documents_fail_jacobi_and_others_do_not():
    lf = run.load_liefol()
    for cycle in range(2):
        for text, expected in gen.document_cycle(lf, 3, cycle):
            doc = json.loads(text)
            setup, _ = lf.cli.document_to_setup(doc)
            assert lf.jacobi_residual(setup.tensor).is_zero == (expected["exit"] == 0)


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(run.BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "check-docs", "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
