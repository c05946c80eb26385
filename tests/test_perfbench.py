import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_smoke_run_agrees_with_the_benchmark_oracle():
    # the shipped fixtures, through the CLI, against perfbench/oracle.py,
    # which shares no code with the package
    done = subprocess.run([sys.executable, "perfbench/run.py", "--smoke"],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] > 0


def test_every_traced_name_still_resolves():
    # traced_cli.py skips a name the package no longer has, so a renamed or
    # fused stage would read 0 in the per-layer metrics without any error
    spec = importlib.util.spec_from_file_location(
        "traced_cli", ROOT / "perfbench" / "traced_cli.py")
    traced = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(traced)
    known_stale = {("pnsoft.jsonio", "validate")}
    missing = set()
    for module_name, attribute, _, _ in traced.WRAPPED:
        owner = importlib.import_module(module_name)
        for part in attribute.split("."):
            owner = getattr(owner, part, None)
        if owner is None:
            missing.add((module_name, attribute))
    assert missing <= known_stale, missing - known_stale


def test_a_traced_union_records_the_layers_it_passes(tmp_path):
    # the per-layer metrics of setops are read from these spans; one that
    # is never recorded would read 0 without any error
    fixtures = ROOT / "src" / "pnsoft" / "fixtures"
    spans_path = tmp_path / "spans.json"
    done = subprocess.run(
        [sys.executable, "perfbench/traced_cli.py", str(spans_path), "--", "union",
         str(fixtures / "cars_assessment_a.json"), str(fixtures / "cars_assessment_b.json"),
         "--tnorm", "product", "--tconorm", "probsum"],
        cwd=ROOT, env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    names = {span[2] for span in json.loads(spans_path.read_text())}
    assert {"algebra.make_profile", "sets.union", "jsonio.load_any",
            "sets.from_rows"} <= names, names


def test_a_traced_decide_records_the_layers_it_passes(tmp_path):
    # the per-layer metrics of decide are read from these spans; a stage
    # that is renamed or fused away would read 0 without any error
    fixtures = ROOT / "src" / "pnsoft" / "fixtures"
    spans_path = tmp_path / "spans.json"
    done = subprocess.run(
        [sys.executable, "perfbench/traced_cli.py", str(spans_path), "--", "decide",
         str(fixtures / "houses_expert_a.json"), str(fixtures / "houses_expert_b.json")],
        cwd=ROOT, env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    names = [span[2] for span in json.loads(spans_path.read_text())]
    for name in ("products.and_product", "decision.weighted_matrices",
                 "decision.decision_scores", "decision.decide"):
        assert names.count(name) == 1, names
    assert names.count("decision.row_scores") == 3, names
